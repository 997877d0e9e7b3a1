package sor

import "testing"

// TestUntiledMatchesRefBitwise requires the pipelined column-pair sweep
// to be bit-identical to the pre-optimization sweep: the pair kernel
// interleaves two Gauss–Seidel chains without reordering any operand.
func TestUntiledMatchesRefBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 33, 101} {
		for _, iters := range []int{1, 4, 9} {
			ref := NewArray(n)
			opt := append([]float64(nil), ref...)
			UntiledRef(ref, n, iters)
			Untiled(opt, n, iters)
			for k := range ref {
				if ref[k] != opt[k] {
					t.Fatalf("n=%d t=%d: a[%d] = %v, ref %v",
						n, iters, k, opt[k], ref[k])
				}
			}
		}
	}
}

// TestThreadedExactParallelMatchesUntiled runs the dependence-exact
// variant through the parallel dataflow executor: any schedule
// respecting the (it,j−1) and (it−1,j+1) dependences is bit-for-bit the
// sequential sweep, at any worker count.
func TestThreadedExactParallelMatchesUntiled(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		sched := ParallelScheduler(1<<15, w)
		for _, n := range []int{8, 33, 101} {
			for _, iters := range []int{1, 4, 9} {
				a := NewArray(n)
				b := append([]float64(nil), a...)
				Untiled(a, n, iters)
				if err := ThreadedExact(b, n, iters, sched); err != nil {
					t.Fatalf("w=%d n=%d t=%d: %v", w, n, iters, err)
				}
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("w=%d n=%d t=%d: a[%d] = %v, parallel %v",
							w, n, iters, k, a[k], b[k])
					}
				}
			}
		}
		sched.Close()
	}
}

// TestThreadedExactParallelStress repeats the dependence-exact sweep at
// 3 and 8 workers on one reused scheduler, including grids much wider
// than the sweep's parallel width, so workers park and wake throughout
// the run; every result must stay bit-identical to Untiled.
func TestThreadedExactParallelStress(t *testing.T) {
	for _, w := range []int{3, 8} {
		sched := ParallelScheduler(1<<12, w)
		for _, n := range []int{5, 64, 257} {
			for _, iters := range []int{2, 7, 16} {
				a := NewArray(n)
				b := append([]float64(nil), a...)
				Untiled(a, n, iters)
				if err := ThreadedExact(b, n, iters, sched); err != nil {
					t.Fatalf("w=%d n=%d t=%d: %v", w, n, iters, err)
				}
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("w=%d n=%d t=%d: a[%d] = %v, parallel %v",
							w, n, iters, k, a[k], b[k])
					}
				}
			}
		}
		sched.Close()
	}
}
