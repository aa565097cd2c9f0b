package fstest

import "runtime"

// AllocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes allocated per call of f over runs calls, after one warm-up call.
// Like AllocsPerRun it pins GOMAXPROCS to 1 while measuring, so other
// goroutines of the test binary stay out of the count.
func AllocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
