package cpufeat

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2MatchesCPUInfo cross-checks the CPUID detection against the
// kernel's view in /proc/cpuinfo where that file exists.
func TestAVX2MatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(val), "avx2"); AVX2 != want {
			t.Fatalf("AVX2 = %v, /proc/cpuinfo says %v", AVX2, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
