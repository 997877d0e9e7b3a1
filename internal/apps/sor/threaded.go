package sor

import "threadsched/internal/core"

// Threaded runs t SOR sweeps with one fine-grained thread per
// (iteration, column), all forked before a single scheduler run — the
// paper's §4.3 structure:
//
//	for i1 = 1 to t
//	    for i3 = 1 to n-1
//	        th_fork(Compute, i3, 0, A(0,i3-1), A(n,i3+1), 0);
//	th_run(0);
//
// The hints are the addresses bounding the thread's three-column window,
// so threads touching the same columns — across all t iterations — share a
// bin and run consecutively while those columns are cache-resident. The
// resulting update order differs from Untiled across bin boundaries
// (asynchronous relaxation); convergence, not bitwise equality, is the
// contract.
func Threaded(a []float64, n, t int, sched *core.Scheduler) {
	const base = 0x1000_0000
	colBytes := uint64(n) * 8
	relax := func(j, _ int) { relaxColumn(a, n, j) }
	for it := 0; it < t; it++ {
		for j := 1; j < n-1; j++ {
			sched.Fork(relax, j, 0,
				base+uint64(j-1)*colBytes,
				base+uint64(j+2)*colBytes,
				0)
		}
	}
	sched.Run(false)
}

// ThreadedScheduler builds the scheduler configuration for the SOR
// workload: two window-bounding hints over one array, block size half the
// cache ("the hints can be fine tuned to keep as much of the array as
// possible in the cache", §4.3).
func ThreadedScheduler(l2Size uint64) *core.Scheduler {
	return core.New(core.Config{CacheSize: l2Size, BlockSize: l2Size / 2})
}

// ParallelScheduler is ThreadedScheduler's multicore counterpart for the
// dependence-exact variant: the same binning plus the parallel dataflow
// executor. Concurrently runnable threads of the SOR DAG are at least two
// columns apart (thread (it₂,j₂) transitively requires (it₁, j₂+(it₂−it₁))
// with it₁ < it₂, so a pending (it₁,j₁) has j₁ ≥ j₂+2), which keeps each
// thread's written column out of the other's three-column window — the
// parallel run is race-free and still bit-identical to Untiled. Close it
// to release the worker pool.
func ParallelScheduler(l2Size uint64, workers int) *core.DepScheduler {
	return core.NewDep(core.Config{CacheSize: l2Size, BlockSize: l2Size / 2, Workers: workers})
}

// ThreadedExact runs t SOR sweeps with fine-grained column threads under
// wavefront dependence constraints, using the dependence-aware scheduler
// (the §6 extension): thread (it, j) runs after (it, j−1) — which also
// protects the right neighbour's not-yet-updated value — and after
// (it−1, j+1). Any schedule respecting these constraints computes exactly
// the sequential sweep, so unlike Threaded this variant is bit-for-bit
// equal to Untiled while still executing bin by bin where the wavefront
// allows.
func ThreadedExact(a []float64, n, t int, sched *core.DepScheduler) error {
	const base = 0x1000_0000
	colBytes := uint64(n) * 8
	relax := func(j, _ int) { relaxColumn(a, n, j) }
	prev := make([]core.ThreadID, n) // ids of iteration it−1
	cur := make([]core.ThreadID, n)
	for it := 0; it < t; it++ {
		for j := 1; j < n-1; j++ {
			deps := make([]core.ThreadID, 0, 2)
			if j > 1 {
				deps = append(deps, cur[j-1])
			}
			if it > 0 && j+1 < n-1 {
				deps = append(deps, prev[j+1])
			}
			cur[j] = sched.Fork(relax, j, 0,
				base+uint64(j-1)*colBytes, base+uint64(j+2)*colBytes, 0, deps...)
		}
		prev, cur = cur, prev
	}
	return sched.Run()
}
