package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// forkWavefront forks an iters×cols SOR-style dependence grid: thread
// (it,j) adds into cell (it,j) from its neighbours and depends on
// (it,j-1) and (it-1,j+1) — the same shape the sor app uses. Each
// thread writes only its own cell, so any execution respecting the
// dependences is race-free and produces the same grid.
func forkWavefront(d *DepScheduler, grid []int64, iters, cols int) {
	id := func(it, j int) ThreadID { return ThreadID(it*cols + j) }
	for it := 0; it < iters; it++ {
		for j := 0; j < cols; j++ {
			it, j := it, j
			var deps []ThreadID
			if j > 0 {
				deps = append(deps, id(it, j-1))
			}
			if it > 0 && j+1 < cols {
				deps = append(deps, id(it-1, j+1))
			}
			d.Fork(func(_, _ int) {
				v := int64(1)
				if j > 0 {
					v += grid[it*cols+j-1]
				}
				if it > 0 && j+1 < cols {
					v += grid[(it-1)*cols+j+1]
				}
				grid[it*cols+j] = v
			}, 0, 0, uint64(j)<<14, 0, 0, deps...)
		}
	}
}

// TestDepSchedulerParallelWavefrontMatchesSerial runs the same
// wavefront-shaped dependence grid through the serial executor and the
// parallel dataflow executor and requires identical results.
func TestDepSchedulerParallelWavefrontMatchesSerial(t *testing.T) {
	const iters, cols = 7, 23
	serial := make([]int64, iters*cols)
	ds := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 14})
	forkWavefront(ds, serial, iters, cols)
	if err := ds.Run(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4} {
		par := make([]int64, iters*cols)
		dp := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, Workers: workers})
		defer dp.Close()
		forkWavefront(dp, par, iters, cols)
		if err := dp.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for k := range serial {
			if serial[k] != par[k] {
				t.Fatalf("workers=%d: cell %d = %d, serial %d",
					workers, k, par[k], serial[k])
			}
		}
	}
}

// TestDepSchedulerParallelTopologicalOrder builds a random DAG and
// checks, via an atomic completion flag per thread, that no thread
// starts before all of its dependencies finished.
func TestDepSchedulerParallelTopologicalOrder(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(11))
	d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 4})
	defer d.Close()

	done := make([]int32, n)
	depsOf := make([][]ThreadID, n)
	var violations int32
	for i := 0; i < n; i++ {
		i := i
		// Depend on up to 3 random earlier threads: always acyclic.
		for k := 0; k < 3 && i > 0; k++ {
			if rng.Intn(2) == 0 {
				depsOf[i] = append(depsOf[i], ThreadID(rng.Intn(i)))
			}
		}
		d.Fork(func(_, _ int) {
			for _, dep := range depsOf[i] {
				if atomic.LoadInt32(&done[dep]) == 0 {
					atomic.AddInt32(&violations, 1)
				}
			}
			atomic.StoreInt32(&done[i], 1)
		}, 0, 0, uint64(rng.Intn(16))<<12, 0, 0, depsOf[i]...)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if v := atomic.LoadInt32(&violations); v != 0 {
		t.Fatalf("%d threads started before a dependency completed", v)
	}
	for i, f := range done {
		if f == 0 {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

// TestDepSchedulerParallelUnknownDepRejected checks the parallel Run
// still reports forward/unknown dependencies and resets cleanly.
func TestDepSchedulerParallelUnknownDepRejected(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20, Workers: 4})
	defer d.Close()
	d.Fork(func(_, _ int) {}, 0, 0, 0, 0, 0, ThreadID(7))
	if err := d.Run(); err == nil {
		t.Fatal("unknown dependency accepted")
	}
	if d.Pending() != 0 {
		t.Fatal("failed run left threads pending")
	}
}

// TestDepSchedulerParallelReuse reuses one parallel DepScheduler across
// consecutive Run calls, as the apps do.
func TestDepSchedulerParallelReuse(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, Workers: 4})
	defer d.Close()
	for round := 0; round < 3; round++ {
		const iters, cols = 4, 9
		grid := make([]int64, iters*cols)
		forkWavefront(d, grid, iters, cols)
		if err := d.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if grid[iters*cols-1] == 0 {
			t.Fatalf("round %d: last cell never computed", round)
		}
	}
}

// TestDepSchedulerParallelNoBarrier pins the executor's liveness: chain
// A's first thread blocks until chain B's second thread has run. With two
// workers one holds a1 while the other must run b1 and then b2; an
// executor that ran b2 only after a batch holding a1 completed (a wave
// barrier) would never let a1 finish, which a1's timeout reports.
func TestDepSchedulerParallelNoBarrier(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 2})
	defer d.Close()
	b2ran := make(chan struct{})
	var timedOut atomic.Bool
	a1 := d.Fork(func(int, int) {
		select {
		case <-b2ran:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
		}
	}, 0, 0, 0, 0, 0)
	d.Fork(func(int, int) {}, 1, 0, 0, 0, 0, a1)
	b1 := d.Fork(func(int, int) {}, 2, 0, 1<<12, 0, 0)
	d.Fork(func(int, int) { close(b2ran) }, 3, 0, 1<<12, 0, 0, b1)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("a1 waited out its timeout: b2 could not run while a1 was running")
	}
}

// TestDepSchedulerParallelRandomDAGStress runs random DAGs at worker
// counts below, at, and above the DAG's typical width, in both ready-set
// orders, and checks through atomic flags that every thread runs exactly
// once and only after all of its predecessors finished.
func TestDepSchedulerParallelRandomDAGStress(t *testing.T) {
	const n = 2000
	for _, workers := range []int{2, 3, 8} {
		for _, critical := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(workers)*7 + 1))
			d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12,
				Workers: workers, CriticalPathFirst: critical})
			for round := 0; round < 3; round++ {
				runs := make([]atomic.Int32, n)
				finished := make([]atomic.Bool, n)
				var early atomic.Int32
				for i := 0; i < n; i++ {
					var pre []ThreadID
					// Mostly short-range edges (chains), some long-range
					// (joins across the DAG), some roots.
					for k := rng.Intn(4); k > 0 && i > 0; k-- {
						back := 1 + rng.Intn(8)
						if rng.Intn(5) == 0 {
							back = 1 + rng.Intn(i)
						}
						if back <= i {
							pre = append(pre, ThreadID(i-back))
						}
					}
					i := i
					d.Fork(func(int, int) {
						for _, p := range pre {
							if !finished[p].Load() {
								early.Add(1)
							}
						}
						runs[i].Add(1)
						finished[i].Store(true)
					}, i, 0, uint64(rng.Intn(32))<<12, 0, 0, pre...)
				}
				if err := d.Run(); err != nil {
					t.Fatalf("workers=%d critical=%v round %d: %v", workers, critical, round, err)
				}
				if e := early.Load(); e != 0 {
					t.Fatalf("workers=%d critical=%v: %d threads started before a predecessor finished",
						workers, critical, e)
				}
				for i := range runs {
					if r := runs[i].Load(); r != 1 {
						t.Fatalf("workers=%d critical=%v: thread %d ran %d times", workers, critical, i, r)
					}
				}
			}
			d.Close()
		}
	}
}
