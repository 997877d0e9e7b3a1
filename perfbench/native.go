package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/nbody"
	"threadsched/internal/apps/pde"
	"threadsched/internal/apps/sor"
	"threadsched/internal/core"
)

// The native workload runs each kernel's threaded variant natively
// through its ParallelScheduler at nproc workers. Every data set is
// larger than a 2 MB L2.

const (
	nativeL2     = 2 << 20 // scheduler cache size: the paper's R8000 L2
	nativeMatmul = 1024
	nativeSOR    = 2005
	nativeSORT   = 10
	nativePDE    = 2049
	nativePDEIt  = 5
	nativeBodies = 32 << 10
)

var kernelNames = []string{"matmul", "sor", "pde", "nbody"}

// nativeState holds the inputs, the working copies and the schedulers of
// one worker count.
type nativeState struct {
	A, B, C  []float64
	sorIn    []float64
	sorA     []float64
	grid     *pde.Grid
	bodiesIn []nbody.Body
	sys      *nbody.System
	tree     *nbody.Tree
	mm, nb   *core.Scheduler
	sorS     *core.DepScheduler
	pdeS     *core.DepScheduler
}

func newNative(seed int64, workers int) *nativeState {
	n := nativeMatmul
	s := &nativeState{
		A: make([]float64, n*n), B: make([]float64, n*n), C: make([]float64, n*n),
		sorIn: sor.NewArray(nativeSOR),
		grid:  pde.NewGrid(nativePDE),
		sys:   nbody.NewSystem(nativeBodies, uint64(seed)),
		tree:  &nbody.Tree{},
		mm:    matmul.ParallelScheduler(nativeL2, workers),
		nb:    nbody.ParallelScheduler(nativeL2, workers),
		sorS:  sor.ParallelScheduler(nativeL2, workers),
		pdeS:  pde.ParallelScheduler(nativeL2, workers),
	}
	matmul.Fill(s.A, n, 1.0)
	matmul.Fill(s.B, n, 2.0)
	s.sorA = slices.Clone(s.sorIn)
	s.bodiesIn = slices.Clone(s.sys.Bodies)
	return s
}

func (s *nativeState) close() {
	s.mm.Close()
	s.nb.Close()
	s.sorS.Close()
	s.pdeS.Close()
}

// reset restores every kernel's input. It is not timed.
func (s *nativeState) reset() {
	copy(s.sorA, s.sorIn)
	clear(s.grid.U) // NewGrid starts from a zero iterate and residual
	clear(s.grid.R)
	copy(s.sys.Bodies, s.bodiesIn)
}

// pass runs the four kernels once on fresh inputs under one timer and
// returns its time; resetting the inputs is not timed.
func (s *nativeState) pass() (time.Duration, error) {
	s.reset()
	t0 := time.Now()
	matmul.Threaded(s.C, s.A, s.B, nativeMatmul, s.mm)
	if err := sor.ThreadedExact(s.sorA, nativeSOR, nativeSORT, s.sorS); err != nil {
		return 0, err
	}
	if err := pde.ThreadedExact(s.grid, nativePDEIt, s.pdeS); err != nil {
		return 0, err
	}
	nbody.StepThreadedReuse(s.sys, s.tree, s.nb, nil)
	return time.Since(t0), nil
}

// tracedPass is pass with a timer around each kernel; it returns the
// pass's time and each kernel's.
func (s *nativeState) tracedPass() (time.Duration, [4]time.Duration, error) {
	var d [4]time.Duration
	s.reset()
	start := time.Now()
	t0 := start
	matmul.Threaded(s.C, s.A, s.B, nativeMatmul, s.mm)
	d[0] = time.Since(t0)

	t0 = time.Now()
	if err := sor.ThreadedExact(s.sorA, nativeSOR, nativeSORT, s.sorS); err != nil {
		return 0, d, err
	}
	d[1] = time.Since(t0)

	t0 = time.Now()
	if err := pde.ThreadedExact(s.grid, nativePDEIt, s.pdeS); err != nil {
		return 0, d, err
	}
	d[2] = time.Since(t0)

	t0 = time.Now()
	nbody.StepThreadedReuse(s.sys, s.tree, s.nb, nil)
	d[3] = time.Since(t0)
	return time.Since(start), d, nil
}

// nativeOutputs is one pass's results, kept for the check.
type nativeOutputs struct {
	C, sorA, U, R []float64
	bodies        []nbody.Body
	mmRun, nbRun  core.RunStats
}

func (s *nativeState) outputs() nativeOutputs {
	return nativeOutputs{slices.Clone(s.C), slices.Clone(s.sorA), slices.Clone(s.grid.U),
		slices.Clone(s.grid.R), slices.Clone(s.sys.Bodies), s.mm.LastRun(), s.nb.LastRun()}
}

// checkNative compares a pass's outputs with the serial kernels' on the
// same inputs, the comparisons the apps' tests make: bit-identical
// arrays and trajectories, and equal bin statistics where the serial
// kernel runs on a scheduler.
func (e *env) checkNative(s *nativeState, got nativeOutputs) {
	n := nativeMatmul
	C := make([]float64, n*n)
	ss := matmul.ThreadedScheduler(nativeL2)
	matmul.Threaded(C, slices.Clone(s.A), s.B, n, ss)
	run := ss.LastRun()
	e.check(slices.Equal(C, got.C) && run.Threads == got.mmRun.Threads && run.Bins == got.mmRun.Bins,
		"matmul: parallel product or bins %+v differ from the serial run %+v", got.mmRun, run)

	a := slices.Clone(s.sorIn)
	sor.Untiled(a, nativeSOR, nativeSORT)
	e.check(slices.Equal(a, got.sorA), "sor: ThreadedExact differs from Untiled")

	g := pde.NewGrid(nativePDE)
	pde.Regular(g, nativePDEIt)
	e.check(slices.Equal(g.U, got.U) && slices.Equal(g.R, got.R), "pde: ThreadedExact differs from Regular")

	sys := s.sys.Clone()
	copy(sys.Bodies, s.bodiesIn)
	sn := nbody.ThreadedScheduler(nativeL2)
	nbody.StepThreadedReuse(sys, &nbody.Tree{}, sn, nil)
	run = sn.LastRun()
	e.check(slices.Equal(sys.Bodies, got.bodies) && run.Threads == got.nbRun.Threads && run.Bins == got.nbRun.Bins,
		"nbody: parallel step or bins %+v differ from the serial step %+v", got.nbRun, run)
}

func runNative(e *env) error {
	s, release, err := setupMedian(e, func() (*nativeState, func(), error) {
		s := newNative(e.seed, e.nproc)
		return s, s.close, nil
	})
	defer release()
	if err != nil {
		return err
	}
	if e.trace {
		return traceNative(e, s)
	}
	var first *nativeOutputs
	times, err := e.measure(3, func() (time.Duration, error) {
		d, err := s.pass()
		if first == nil {
			out := s.outputs()
			first = &out
		}
		return d, err
	})
	if err != nil {
		return err
	}
	e.checkNative(s, *first)
	e.set("op_ms", median(times)*1e3, "ms")
	return nil
}

// traceNative alternates untraced passes (one timer around the four
// kernels) with traced passes (one timer per kernel), so
// obs.overhead_frac compares the same work with and without the
// per-kernel timers. It then times each kernel at one worker for the
// scaling ratios, and the core layer's fork and run costs on null
// threads.
func traceNative(e *env, s *nativeState) error {
	var untraced, traced []float64
	var kern [4][]float64
	var first *nativeOutputs
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < e.seconds/2 {
		d, err := s.pass()
		if err != nil {
			return err
		}
		untraced = append(untraced, d.Seconds())

		d, k, err := s.tracedPass()
		if err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
		for i := range k {
			kern[i] = append(kern[i], k[i].Seconds())
		}
		if first == nil {
			out := s.outputs()
			first = &out
		}
	}
	e.checkNative(s, *first)
	mm, nb := first.mmRun, first.nbRun
	first = nil
	runtime.GC() // drop the checked outputs before a second data set is built

	one := newNative(e.seed, 1)
	defer one.close()
	var kern1 [4][]float64
	for i := 0; i < 2; i++ {
		_, d, err := one.tracedPass()
		if err != nil {
			return err
		}
		for k := range d {
			kern1[k] = append(kern1[k], d[k].Seconds())
		}
	}

	layers := 0.0
	for k, name := range kernelNames {
		m := median(kern[k])
		layers += m
		e.set("apps."+name+"_s", m, "s")
		e.set("core.scaling."+name, median(kern1[k])/m, "ratio")
	}
	e.setOther("native.other_s", "s", median(traced), layers)
	e.set("obs.overhead_frac", median(traced)/median(untraced)-1, "ratio")
	e.set("core.bins", float64(mm.Bins+nb.Bins), "count")
	e.set("core.threads", float64(mm.Threads+nb.Threads), "count")

	fork, run := nullThreads(1 << 20)
	e.set("core.fork_ns", fork, "ns")
	e.set("core.run_ns", run, "ns")
	e.set("core.parallel_fork_ns", parallelFork(1<<20, e.nproc), "ns")
	return nil
}

// nullFn is the body of every null thread.
func nullFn(int, int) {}

// nullHints spreads thread i over a 16×16 plane of 1 MB blocks, as
// Table 1's measurement does.
func nullHints(i int) (uint64, uint64) {
	const blocks = 16
	return uint64(i%blocks) << 20, uint64((i/blocks)%blocks) << 20
}

// nullThreads forks and runs n null threads through core.New, Fork and
// Run after one warm-up round, and returns nanoseconds per fork and per
// run (the paper's Table 1 measurement).
func nullThreads(n int) (forkNS, runNS float64) {
	s := core.New(core.Config{CacheSize: 2 << 20, BlockSize: 1 << 20})
	for i := 0; i < n/16; i++ {
		h1, h2 := nullHints(i)
		s.Fork(nullFn, 0, 0, h1, h2, 0)
	}
	s.Run(false)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h1, h2 := nullHints(i)
		s.Fork(nullFn, i, 0, h1, h2, 0)
	}
	fork := time.Since(t0)
	t0 = time.Now()
	s.Run(false)
	run := time.Since(t0)
	return float64(fork.Nanoseconds()) / float64(n), float64(run.Nanoseconds()) / float64(n)
}

// parallelFork forks n null threads from workers goroutines into a
// ParallelFork scheduler and returns the wall nanoseconds per fork.
func parallelFork(n, workers int) float64 {
	s := core.New(core.Config{CacheSize: 2 << 20, BlockSize: 1 << 20, ParallelFork: true})
	defer s.Close()
	forkAll := func(count int) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < count; i += workers {
					h1, h2 := nullHints(i)
					s.Fork(nullFn, i, 0, h1, h2, 0)
				}
			}(w)
		}
		wg.Wait()
		d := time.Since(t0)
		s.Run(false)
		return d
	}
	forkAll(n / 16)
	return float64(forkAll(n).Nanoseconds()) / float64(n)
}
