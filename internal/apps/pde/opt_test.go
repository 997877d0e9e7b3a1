package pde

import (
	"testing"

	"threadsched/internal/core"
)

// TestCacheConsciousMatchesRefBitwise requires the fused red-black pair
// schedule to be bit-identical to the pre-optimization fused schedule:
// interleaving red(j) with black(j−1) preserves every read value.
func TestCacheConsciousMatchesRefBitwise(t *testing.T) {
	for _, n := range []int{4, 5, 17, 65} {
		for _, iters := range []int{1, 3, 6} {
			a := NewGrid(n)
			b := a.Clone()
			CacheConsciousRef(a, iters)
			CacheConscious(b, iters)
			for k := range a.U {
				if a.U[k] != b.U[k] {
					t.Fatalf("n=%d it=%d: U[%d] = %v, ref %v", n, iters, k, b.U[k], a.U[k])
				}
				if a.R[k] != b.R[k] {
					t.Fatalf("n=%d it=%d: R[%d] = %v, ref %v", n, iters, k, b.R[k], a.R[k])
				}
			}
		}
	}
}

// TestThreadedExactMatchesRegular checks the dependence-exact variant
// against the plain red-black relaxation, serial and through the
// parallel dataflow executor at several worker counts.
func TestThreadedExactMatchesRegular(t *testing.T) {
	scheds := map[string]*core.DepScheduler{
		"serial": core.NewDep(core.Config{CacheSize: 1 << 15, BlockSize: 1 << 14}),
		"w2":     ParallelScheduler(1<<15, 2),
		"w4":     ParallelScheduler(1<<15, 4),
	}
	for name, sched := range scheds {
		for _, n := range []int{5, 17, 65} {
			for _, iters := range []int{1, 3, 6} {
				a := NewGrid(n)
				b := a.Clone()
				Regular(a, iters)
				if err := ThreadedExact(b, iters, sched); err != nil {
					t.Fatalf("%s n=%d it=%d: %v", name, n, iters, err)
				}
				for k := range a.U {
					if a.U[k] != b.U[k] {
						t.Fatalf("%s n=%d it=%d: U[%d] = %v, regular %v",
							name, n, iters, k, b.U[k], a.U[k])
					}
					if a.R[k] != b.R[k] {
						t.Fatalf("%s n=%d it=%d: R[%d] = %v, regular %v",
							name, n, iters, k, b.R[k], a.R[k])
					}
				}
			}
		}
		sched.Close()
	}
}

// TestThreadedExactParallelStress repeats the dependence-exact relaxation
// at 3 and 8 workers on one reused scheduler. Eight workers exceed the
// DAG's parallel width, so idle workers park and wake throughout the run;
// U and R must stay bit-identical to Regular.
func TestThreadedExactParallelStress(t *testing.T) {
	for _, w := range []int{3, 8} {
		sched := ParallelScheduler(1<<12, w)
		for _, n := range []int{5, 65, 129} {
			for _, iters := range []int{2, 5, 9} {
				a := NewGrid(n)
				b := a.Clone()
				Regular(a, iters)
				if err := ThreadedExact(b, iters, sched); err != nil {
					t.Fatalf("w=%d n=%d it=%d: %v", w, n, iters, err)
				}
				for k := range a.U {
					if a.U[k] != b.U[k] || a.R[k] != b.R[k] {
						t.Fatalf("w=%d n=%d it=%d: cell %d = (%v, %v), regular (%v, %v)",
							w, n, iters, k, b.U[k], b.R[k], a.U[k], a.R[k])
					}
				}
			}
		}
		sched.Close()
	}
}
