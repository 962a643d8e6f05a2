package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"autohet/internal/obs"
	"autohet/internal/quant"
)

// outcome is what one workload run measured and checked.
type outcome struct {
	checks checks
	e2e    map[string]float64
	layers map[string]float64
	// headline holds the workload's own end-to-end metrics under their
	// workload-specific names (search_rounds_per_s, serve_goodput_frac…),
	// printed in the report line.
	headline map[string]metricValue
	params   any
}

func newOutcome(params any) *outcome {
	return &outcome{
		e2e:      map[string]float64{},
		layers:   map[string]float64{},
		headline: map[string]metricValue{},
		params:   params,
	}
}

func (o *outcome) head(name string, v float64, unit string) {
	o.headline[name] = metricValue{Value: v, Unit: unit}
}

// report is the line printed before the result: headline metrics,
// failures, parameters and provenance.
func (o *outcome) report(workload string, rc runConfig) map[string]any {
	h := map[string]metricValue{}
	for k, v := range o.headline {
		h[k] = v
	}
	h["failed_frac"] = metricValue{Value: o.checks.failedFrac(), Unit: "failed/attempted"}
	return map[string]any{
		"workload":   workload,
		"metrics":    h,
		"attempted":  o.checks.attempted,
		"failed":     o.checks.failed,
		"provenance": collectProvenance(workload, rc, o.params),
	}
}

// checks counts checked operations and the ones whose output was wrong.
// Every failure is printed to standard error as it is found.
type checks struct {
	attempted, failed int
}

// record counts one operation, failed when any of errs is non-nil.
func (c *checks) record(op string, errs ...error) bool {
	c.attempted++
	if err := errors.Join(errs...); err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", op, err)
		return false
	}
	return true
}

func (c *checks) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// quantile is the nearest-rank p-quantile of xs (sorted in place).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsMS converts op durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB is the heap still reachable after a full collection. Callers
// take it while the warm engine, environment or fleet is referenced, so it
// is the memory the workload holds, independent of GC timing.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// recordMemory reports the workload's live heap (bounded) and the process's
// peak RSS (unbounded: the runtime returns freed pages to the OS at a pace
// set by wall time and GC timing, so the same program run faster, or on a
// less loaded host, peaks higher).
func recordMemory(o *outcome, liveMB float64) {
	o.e2e["heap_live_mb"] = liveMB
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		o.layers["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	o.head("heap_live_mb", liveMB, "MB")
	o.head("peak_rss_mb", o.layers["runtime.peak_rss_mb"], "MB")
}

// memPhase measures the Go runtime's allocation and GC work over a phase.
type memPhase struct{ start runtime.MemStats }

// startMemPhase first collects what set-up left behind, so the phase neither
// pays for nor is slowed by a collection of earlier garbage.
func startMemPhase() *memPhase {
	runtime.GC()
	p := &memPhase{}
	runtime.ReadMemStats(&p.start)
	return p
}

// end records the phase's runtime.* metrics, normalizing allocation by the
// phase's op count.
func (p *memPhase) end(layers map[string]float64, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	n := float64(max(ops, 1))
	layers["runtime.alloc_mb_per_op"] = float64(m.TotalAlloc-p.start.TotalAlloc) / (1 << 20) / n
	layers["runtime.allocs_per_op"] = float64(m.Mallocs-p.start.Mallocs) / n
	layers["runtime.gc_cycles"] = float64(m.NumGC - p.start.NumGC)
	layers["runtime.gc_pause_ms"] = float64(m.PauseTotalNs-p.start.PauseTotalNs) / 1e6
}

// counters snapshots every counter the program publishes on obs.Default.
func counters() map[string]int64 { return obs.Default.JSON().Counters }

// counterDelta is after[name]−before[name] for an obs counter.
func counterDelta(before, after map[string]int64, name string) int64 {
	return after[name] - before[name]
}

// stageSeconds is an obs stage counter's delta in seconds.
func stageSeconds(before, after map[string]int64, family, stage string) float64 {
	return float64(counterDelta(before, after, fmt.Sprintf("%s{stage=%q}", family, stage))) / 1e9
}

// subSeed derives a decorrelated stream seed (splitmix64 finalizer), so
// every input of a run follows from the one --seed.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// span is one traced interval recorded by the benchmark around a call into
// a layer. Spans of one operation share Op; Parent is the enclosing span's
// ID (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced phase ends, and runs the
// CPU profile over the same phase.
type tracer struct {
	dir   string
	t0    time.Time
	spans []span
	cpu   *os.File
}

// startTrace begins the traced phase; with dir "" it records spans but
// writes nothing.
func startTrace(dir string) (*tracer, error) {
	runtime.GC() // as startMemPhase: start from the same heap state
	t := &tracer{dir: dir, t0: time.Now()}
	if dir == "" {
		return t, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t.cpu = f
	return t, nil
}

// add records a span and returns its ID.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	return id
}

// stop ends the CPU profile and writes the heap profile and the spans.
func (t *tracer) stop() error {
	if t.dir == "" {
		return nil
	}
	pprof.StopCPUProfile()
	if err := t.cpu.Close(); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(t.dir, "heap.pprof"), func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 0)
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(t.dir, "spans.json"), func(f *os.File) error {
		return json.NewEncoder(f).Encode(t.spans)
	})
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Set at link time by run.sh; a build outside git leaves them "unknown".
var (
	gitRevision = "unknown"
	gitDirty    = "unknown"
)

// collectProvenance records what the numbers were measured on and with.
func collectProvenance(workload string, rc runConfig, params any) map[string]any {
	model, avx2 := cpuInfo()
	return map[string]any{
		"git_revision": gitRevision,
		"git_dirty":    gitDirty,
		"go_version":   runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
		"cpu_model":    model,
		"cpu_avx2":     avx2,
		// The blocked MVM kernel is AVX2-gated: without it the infer
		// workloads run a different kernel.
		"blocked_kernel": blockedKernel(),
		"workload":       workload,
		"seed":           rc.seed,
		"seconds":        rc.seconds,
		"trace":          rc.trace,
		"params":         params,
	}
}

// blockedKernel reports whether quant's AVX2 blocked kernel engages here.
func blockedKernel() bool {
	m := &quant.Matrix{Rows: 32, Cols: 32, Bits: 8, Scale: 1, Q: make([]int8, 32*32)}
	return m.Blocked() != nil
}

// cpuInfo reads the CPU model and AVX2 flag from /proc/cpuinfo.
func cpuInfo() (model string, avx2 bool) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", false
	}
	defer f.Close()
	model = "unknown"
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			avx2 = slices.Contains(strings.Fields(val), "avx2")
			return model, avx2
		}
	}
	return model, avx2
}
