package pde

import (
	"fmt"
	"testing"
)

const (
	benchN     = 513
	benchIters = 5
	benchL     = 2 << 20
)

func reportUpdates(b *testing.B, n, iters int) {
	updates := float64(iters) * float64(n-2) * float64(n-2)
	b.ReportMetric(updates*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
}

// BenchmarkCacheConsciousRef is the pre-optimization fused schedule.
func BenchmarkCacheConsciousRef(b *testing.B) {
	g := NewGrid(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CacheConsciousRef(g, benchIters)
	}
	reportUpdates(b, benchN, benchIters)
}

// BenchmarkCacheConscious is the optimized fused red-black pair schedule.
func BenchmarkCacheConscious(b *testing.B) {
	g := NewGrid(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CacheConscious(g, benchIters)
	}
	reportUpdates(b, benchN, benchIters)
}

// BenchmarkThreadedExact measures the dependence-exact variant through
// the dataflow executor at 1/2/4 workers.
func BenchmarkThreadedExact(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			g := NewGrid(benchN)
			sched := ParallelScheduler(benchL, w)
			defer sched.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ThreadedExact(g, benchIters, sched); err != nil {
					b.Fatal(err)
				}
			}
			reportUpdates(b, benchN, benchIters)
		})
	}
}
