package pde

import "threadsched/internal/core"

// Threaded runs iters iterations forking one fine-grained thread per fused
// line block (§4.3: "there are ny+1 threads to do the work each
// iteration"), with the line's base address as a one-dimensional hint.
// Because the red-black ordering determines when each element may be
// updated, threads are run once per iteration; the scheduler's
// allocation-ordered bins and FIFO groups preserve ascending line order,
// so results are bit-for-bit identical to Regular.
func Threaded(g *Grid, iters int, sched *core.Scheduler) {
	const uBase = 0x1000_0000
	lineBytes := uint64(g.N) * 8
	step := func(j, lastArg int) { g.fusedStep(j, lastArg == 1) }
	for it := 0; it < iters; it++ {
		lastArg := 0
		if it == iters-1 {
			lastArg = 1
		}
		for j := 1; j <= g.fusedSteps(); j++ {
			sched.Fork(step, j, lastArg, uBase+uint64(j)*lineBytes, 0, 0)
		}
		sched.Run(false)
	}
}

// ThreadedScheduler builds the scheduler configuration used for the PDE
// workload: one-dimensional hints, default block size of half the cache
// (one line of hints only occupies one dimension of the plane).
func ThreadedScheduler(l2Size uint64) *core.Scheduler {
	return core.New(core.Config{CacheSize: l2Size, BlockSize: l2Size / 2})
}

// ThreadedExact runs the fused schedule with one dependence-constrained
// thread per fused step on the dependence-aware scheduler (the §6
// extension), forking all iterations before a single Run: thread (it, j)
// runs after (it, j−1) — the within-iteration chain that reproduces the
// fused line order — and after (it−1, j+2), the first step of the
// previous iteration to finish every line step (it, j) touches. Any
// schedule respecting these constraints computes exactly CacheConscious
// (hence Regular), bit for bit.
func ThreadedExact(g *Grid, iters int, sched *core.DepScheduler) error {
	const uBase = 0x1000_0000
	lineBytes := uint64(g.N) * 8
	step := func(j, lastArg int) { g.fusedStep(j, lastArg == 1) }
	steps := g.fusedSteps()
	prev := make([]core.ThreadID, steps+1) // ids of iteration it−1
	cur := make([]core.ThreadID, steps+1)
	for it := 0; it < iters; it++ {
		lastArg := 0
		if it == iters-1 {
			lastArg = 1
		}
		for j := 1; j <= steps; j++ {
			deps := make([]core.ThreadID, 0, 2)
			if j > 1 {
				deps = append(deps, cur[j-1])
			}
			if it > 0 && j+2 <= steps {
				deps = append(deps, prev[j+2])
			}
			cur[j] = sched.Fork(step, j, lastArg,
				uBase+uint64(j)*lineBytes, 0, 0, deps...)
		}
		prev, cur = cur, prev
	}
	return sched.Run()
}

// ParallelScheduler is ThreadedScheduler's multicore counterpart for the
// dependence-exact variant: the same binning plus the parallel dataflow
// executor. Concurrently runnable threads of the PDE DAG are at least
// three fused steps apart (thread (it₂,j₂) transitively requires
// (it₁, j₂+2(it₂−it₁)) with it₁ < it₂, so a pending (it₁,j₁) has
// j₁ ≥ j₂+3), which keeps each thread's written lines (j, j−1, residual
// j−2) out of the other's window — the parallel run is race-free and
// still bit-identical to Regular. Close it to release the worker pool.
func ParallelScheduler(l2Size uint64, workers int) *core.DepScheduler {
	return core.NewDep(core.Config{CacheSize: l2Size, BlockSize: l2Size / 2, Workers: workers})
}
