// Package cpufeat detects the CPU features the repository's assembly
// kernels need, once, at start-up. The quant and mat packages read AVX2 on
// every call to choose between their AVX2 kernels and portable Go
// fallbacks, so a test can clear it to run the fallback path; nothing
// outside tests writes it.
package cpufeat

// AVX2 reports whether the CPU supports AVX2 and the OS saves YMM state
// across context switches. It is always false off amd64.
var AVX2 = detectAVX2()
