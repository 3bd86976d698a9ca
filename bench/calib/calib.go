// Package calib is the benchmark's machine-speed probe: a fixed amount
// of work that never touches repository code, timed around every
// measured iteration so host time can be corrected for the sandbox's
// speed drift. It imports only the standard library (bench_test.go
// asserts that), so no change to the simulator can move it.
package calib

import "time"

// RefMs is the kernel's median wall time, in milliseconds, on the
// machine the committed baseline was recorded on. Calibrated time is
// wall x RefMs / kernel time, so on that machine calibrated time equals
// raw time. Re-record it together with bench/baseline.json (see
// bench/README.md); changing it alone rescales every cal_* metric.
const RefMs = 39.0

const (
	midWords   = 1 << 20 / 8 // 1 MiB: loads that mostly hit the private L2
	largeWords = 8 << 20 / 8 // 8 MiB: loads that miss the private caches
	aluSteps   = 1 << 21
	midLoads   = 5 << 19
	largeLoads = 1 << 16
)

var mid, large []uint64

func fill(n int) []uint64 {
	t := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}

// Kernel does the fixed work and returns a checksum so the compiler
// cannot drop it. The mix was fitted to the simulator, not guessed: over
// 2000 interleaved cagcsim runs on the 2-vCPU sandbox, independent
// random loads over 1 MiB with an unpredictable branch tracked the
// simulator's wall time with unit elasticity (log-log slope 0.95-0.99,
// correlation 0.93), while a dependent xorshift chain or 32 KiB loads
// moved half as much as the simulator did (slope 2) and so corrected
// only half of a slow spell. Hence two thirds of the time goes to the
// 1 MiB loads, with a short ALU chain and dependent 8 MiB loads beside
// them so a clock change or a DRAM-only slowdown still registers.
func Kernel() uint64 {
	if mid == nil {
		mid, large = fill(midWords), fill(largeWords)
	}
	x := uint64(88172645463325252)
	for i := 0; i < aluSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	var acc uint64
	for i := 0; i < midLoads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := mid[x>>33&(midWords-1)]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
	}
	x += acc
	for i := 0; i < largeLoads; i++ {
		x = x*6364136223846793005 + large[x>>40&(largeWords-1)]
	}
	return x
}

// Sink keeps Kernel's result observable.
var Sink uint64

// Measure runs the kernel once and returns its wall time in
// milliseconds.
func Measure() float64 {
	t0 := time.Now()
	Sink += Kernel()
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
