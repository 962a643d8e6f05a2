#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload infer --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and trace stays under .bench_build/ in the
# repository root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

rev=unknown
dirty=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	rev="$(git -C "$root" rev-parse HEAD)"
	if [[ -z "$(git -C "$root" --no-optional-locks status --porcelain --untracked-files=no)" ]]; then
		dirty=false
	else
		dirty=true
	fi
fi

(cd "$root/perfbench" && go build -buildvcs=false \
	-ldflags "-X main.gitRevision=$rev -X main.gitDirty=$dirty" \
	-o "$out/perfbench" .)

exec "$out/perfbench" --out "$out/trace" "$@"
