package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"

	"threadsched/internal/obs"
)

// DepScheduler extends the thread package with dependence constraints —
// the capability §6 lists as an open problem: "it would not be convenient
// to program algorithms that have complex dependencies. Methods to
// specify dependencies and ways to implement them efficiently remain to
// be demonstrated."
//
// A thread may name previously forked threads it must run after. Run
// executes a locality-greedy topological order: bins are visited in the
// usual ready-list order and every runnable (dependence-satisfied) thread
// of a bin executes before the scheduler moves on; threads whose
// predecessors are still pending stay queued and their bin is revisited.
// Independent threads therefore keep the paper's bin clustering, and
// dependent ones are delayed exactly as long as the DAG requires.
//
// With Config.Workers > 1, Run instead executes the DAG as a barrier-free
// dataflow on the persistent worker pool (see dataflow.go): a thread runs
// as soon as its last predecessor finishes, on that predecessor's worker
// when it is the first dependent readied, otherwise from a shared ready
// set any idle worker claims from. Threads with no dependence path
// between them may then run concurrently — callers must ensure the
// dependence edges cover every conflicting access, which is exactly what
// the wavefront variants (sor.ThreadedExact, pde.ThreadedExact) encode.
// Fork remains single-goroutine either way.
//
// Config.CriticalPathFirst additionally orders execution by downstream
// slack: each thread's longest remaining dependence path is computed once
// per DAG, the serial executor visits bins holding the tallest chains
// first each round, and the parallel executor drains its ready set
// tallest-first — so chains retire ahead of leaves and the run is less
// likely to end serialized on one straggler chain. Config.Topology does
// not shape DepScheduler dispatch: the parallel executor has no per-batch
// partition to cut, and a chain stays on the worker that readied it.
type DepScheduler struct {
	sched *Scheduler // reuses binning via an internal fork of metadata

	blockShift uint
	fold       bool
	workers    int

	// critical enables Config.CriticalPathFirst: heights[id] is the
	// longest dependence path below thread id (its downstream slack),
	// computed once per DAG, and ready threads drain tallest-first.
	critical bool
	heights  []int32

	// met records the dataflow metrics (dep.idle_ns, dep.published);
	// disabled when the Config carried no Obs.
	met depObs

	threads []depThread
	bins    []*depBin
	binIdx  map[binKey]int
	pending int

	// flow is the parallel executor's shared state, kept across runs so
	// its ready-set buffer is reused.
	flow dataflow
}

// ThreadID names a forked thread within one DepScheduler run.
type ThreadID int

type depThread struct {
	fn         Func
	arg1, arg2 int
	bin        int
	// waits is the number of unfinished predecessors (-1 marks an invalid
	// dependence). The parallel executor decrements it atomically, and the
	// worker that takes it to zero owns the thread; the plain loads
	// elsewhere happen before the run starts or after its workers quiesce.
	waits int32
	// badDep is the offending dependence when waits is -1, surfaced by
	// Run in the UnknownDependencyError.
	badDep ThreadID
	// dependents are thread IDs to notify on completion.
	dependents []ThreadID
	done       bool
}

type depBin struct {
	key   binKey
	queue []ThreadID // forked order
	next  int        // first unexecuted index
}

// ErrDependencyCycle reports that Run found threads that can never become
// runnable. Run returns it wrapped in a *DependencyCycleError naming the
// stuck threads; match with errors.Is.
var ErrDependencyCycle = errors.New("core: dependency cycle among threads")

// ErrUnknownDependency reports a Fork whose deps named a thread ID that
// was never forked (forward references and IDs from a previous Run are
// invalid). Run returns it wrapped in an *UnknownDependencyError naming
// the offending thread and dependence; match with errors.Is.
var ErrUnknownDependency = errors.New("core: thread depends on an unknown thread ID")

// DependencyCycleError is the diagnosable form of ErrDependencyCycle:
// when Run stops making progress, the threads left over — the residue of
// the implicit Kahn topological sort Run performs — must contain a cycle,
// and one is extracted by walking waits-on edges through the residue
// until a thread repeats.
type DependencyCycleError struct {
	// Cycle is one dependency cycle among the stuck threads: Cycle[i]
	// waits on Cycle[i+1], and the last element waits on the first.
	Cycle []ThreadID
	// Stuck is the total number of threads left unexecutable — the whole
	// Kahn residue, of which Cycle is one witness loop.
	Stuck int
}

// Error names the cycle's thread IDs.
func (e *DependencyCycleError) Error() string {
	if len(e.Cycle) == 0 {
		return fmt.Sprintf("%v (%d threads stuck)", ErrDependencyCycle, e.Stuck)
	}
	ids := make([]byte, 0, 8*len(e.Cycle))
	for _, id := range e.Cycle {
		if len(ids) > 0 {
			ids = append(ids, " -> "...)
		}
		ids = fmt.Appendf(ids, "%d", id)
	}
	return fmt.Sprintf("%v: %s -> %d (%d threads stuck)",
		ErrDependencyCycle, ids, e.Cycle[0], e.Stuck)
}

// Unwrap matches errors.Is(err, ErrDependencyCycle).
func (e *DependencyCycleError) Unwrap() error { return ErrDependencyCycle }

// UnknownDependencyError is the diagnosable form of ErrUnknownDependency,
// naming the first thread forked with an invalid dependence.
type UnknownDependencyError struct {
	// Thread is the thread that was forked with the bad dependence.
	Thread ThreadID
	// Dep is the dependence that named no forked thread.
	Dep ThreadID
}

// Error names the offending thread and dependence.
func (e *UnknownDependencyError) Error() string {
	return fmt.Sprintf("%v: thread %d depends on %d, which was not forked before it "+
		"(IDs are valid only for threads already forked in this Run cycle)",
		ErrUnknownDependency, e.Thread, e.Dep)
}

// Unwrap matches errors.Is(err, ErrUnknownDependency).
func (e *UnknownDependencyError) Unwrap() error { return ErrUnknownDependency }

// NewDep returns a dependence-aware scheduler configured like New.
// Config.Workers > 1 selects the parallel dataflow executor.
func NewDep(cfg Config) *DepScheduler {
	s := New(cfg)
	d := &DepScheduler{
		sched:      s,
		blockShift: s.blockShift,
		fold:       cfg.FoldSymmetric,
		workers:    cfg.Workers,
		critical:   cfg.CriticalPathFirst,
		met:        newDepObs(cfg.Obs),
		binIdx:     make(map[binKey]int),
	}
	d.flow.d = d
	d.flow.wake.L = &d.flow.mu
	return d
}

// Workers returns the configured parallel-executor worker count; values
// below two mean Run drains bins serially.
func (d *DepScheduler) Workers() int { return d.workers }

// Close releases the worker goroutines a parallel Run left parked; see
// Scheduler.Close.
func (d *DepScheduler) Close() { d.sched.Close() }

// Snapshot merges the attached observability registry (worker park times
// and ready-set publications plus the shared worker metrics); the zero
// Snapshot without Config.Obs. See Scheduler.Snapshot.
func (d *DepScheduler) Snapshot() obs.Snapshot { return d.sched.Snapshot() }

// BlockSize returns the per-dimension block size in effect.
func (d *DepScheduler) BlockSize() uint64 { return d.sched.BlockSize() }

// Pending returns the number of threads forked but not run.
func (d *DepScheduler) Pending() int { return d.pending }

// BinsUsed returns the number of bins holding threads.
func (d *DepScheduler) BinsUsed() int { return len(d.bins) }

// Fork schedules f(arg1, arg2) with the usual address hints, to run only
// after every thread in deps has completed. It returns the new thread's
// ID. Unknown (future) IDs in deps are an error at Run time; IDs from a
// previous Run are invalid.
//
// Like Scheduler.Fork, it must never overlap a Run in progress — Fork is
// single-goroutine and the fork phase must complete before Run starts —
// and panics if it detects that misuse.
func (d *DepScheduler) Fork(f Func, arg1, arg2 int, h1, h2, h3 uint64, deps ...ThreadID) ThreadID {
	if d.sched.running.Load() {
		panic("core: Fork called during Run; fork and run phases must not overlap " +
			"(DepScheduler.Fork is single-goroutine and must complete before Run starts)")
	}
	key := binKey{h1 >> d.blockShift, h2 >> d.blockShift, h3 >> d.blockShift}
	if d.fold {
		sortKey(&key)
	}
	bi, ok := d.binIdx[key]
	if !ok {
		bi = len(d.bins)
		d.binIdx[key] = bi
		d.bins = append(d.bins, &depBin{key: key})
	}
	id := ThreadID(len(d.threads))
	t := depThread{fn: f, arg1: arg1, arg2: arg2, bin: bi}
	for _, dep := range deps {
		if dep < 0 || int(dep) >= len(d.threads) {
			// Defer the error to Run by marking an impossible wait; a
			// panic here would be hostile in library code.
			t.waits = -1
			t.badDep = dep
			break
		}
		if !d.threads[dep].done {
			t.waits++
			d.threads[dep].dependents = append(d.threads[dep].dependents, id)
		}
	}
	d.threads = append(d.threads, t)
	d.bins[bi].queue = append(d.bins[bi].queue, id)
	d.pending++
	return id
}

// Run executes all threads in a locality-greedy topological order,
// destroying the schedule. It fails (leaving unexecuted threads
// unexecuted) if dependencies are invalid or cyclic. With Workers > 1
// runnable threads execute concurrently on the worker pool.
//
// Run is RunContext without cancellation; a thread panic propagates as a
// panic (with a *ThreadPanicError value) exactly as it did before
// containment existed.
func (d *DepScheduler) Run() error {
	err := d.RunContext(context.Background())
	if p, ok := err.(*ThreadPanicError); ok {
		panic(p)
	}
	return err
}

// RunContext is Run with cooperative cancellation and fault containment.
// A thread panic is recovered, the run quiesces (parallel workers stop at
// their next bin boundary; no goroutines leak), and the first panic
// returns as a *ThreadPanicError. A done ctx stops the run at the next
// bin (serial) or thread (parallel) boundary and returns ctx.Err(). Invalid
// dependencies return an *UnknownDependencyError before any thread runs,
// and a run that stops making progress returns a *DependencyCycleError
// naming one witness cycle.
//
// On any outcome the schedule is destroyed: forked threads are discarded
// (executed or not) and the scheduler is immediately reusable for a fresh
// Fork/Run cycle.
func (d *DepScheduler) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer d.reset()
	for id, t := range d.threads {
		if t.waits < 0 {
			return &UnknownDependencyError{Thread: ThreadID(id), Dep: t.badDep}
		}
	}
	d.sched.running.Store(true)
	defer d.sched.running.Store(false)
	if d.critical {
		d.computeHeights()
	}
	if d.workers > 1 {
		return d.runDataflow(ctx)
	}
	binOrder := d.serialBinOrder()
	remaining := d.pending
	for remaining > 0 {
		ranThisRound := 0
		for i := range d.bins {
			bi := i
			if binOrder != nil {
				bi = binOrder[i]
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			ran, perr := d.drainBin(d.bins[bi], bi)
			ranThisRound += ran
			if perr != nil {
				return perr
			}
		}
		if ranThisRound == 0 {
			return d.cycleError()
		}
		remaining -= ranThisRound
	}
	// Cancellation wins even when it lands during the final drain, for
	// consistency with the parallel path's post-quiescence control check.
	return ctx.Err()
}

// computeHeights fills heights[id] with the longest dependence path from
// thread id down through its dependents — the amount of serial work its
// completion unblocks. Dependence edges only point from lower to higher
// IDs (a dependence must name an already-forked thread), so one
// descending-ID pass settles every height.
func (d *DepScheduler) computeHeights() {
	n := len(d.threads)
	if cap(d.heights) < n {
		d.heights = make([]int32, n)
	} else {
		d.heights = d.heights[:n]
		for i := range d.heights {
			d.heights[i] = 0
		}
	}
	for id := n - 1; id >= 0; id-- {
		h := int32(0)
		for _, dep := range d.threads[id].dependents {
			if hh := d.heights[dep] + 1; hh > h {
				h = hh
			}
		}
		d.heights[id] = h
	}
}

// serialBinOrder is the bin visit order for the serial executor: nil (the
// identity, allocation order) normally; under CriticalPathFirst, bins
// sorted by their tallest thread's height descending, so every round of
// the scan reaches the bins holding the longest remaining chains first.
func (d *DepScheduler) serialBinOrder() []int {
	if !d.critical {
		return nil
	}
	maxH := make([]int32, len(d.bins))
	for bi, b := range d.bins {
		for _, id := range b.queue {
			if h := d.heights[id]; h > maxH[bi] {
				maxH[bi] = h
			}
		}
	}
	order := make([]int, len(d.bins))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return maxH[order[a]] > maxH[order[b]] })
	return order
}

// drainBin runs every currently runnable thread of the bin, in forked
// order, including threads unblocked by work done within this drain. A
// thread panic is recovered into a *ThreadPanicError identifying the
// thread; ran still counts the threads that completed before it.
func (d *DepScheduler) drainBin(b *depBin, binIdx int) (ran int, perr *ThreadPanicError) {
	cur := ThreadID(-1)
	defer func() {
		if r := recover(); r != nil {
			perr = &ThreadPanicError{
				Value:  r,
				Phase:  "dep-run",
				Worker: 0,
				Bin:    binIdx,
				Thread: int(cur),
				Stack:  debug.Stack(),
			}
		}
	}()
	for {
		progressed := false
		// Advance the frontier past executed threads and run runnable
		// ones at the frontier; scan the tail for runnable stragglers.
		for i := b.next; i < len(b.queue); i++ {
			id := b.queue[i]
			t := &d.threads[id]
			if t.done {
				if i == b.next {
					b.next++
				}
				continue
			}
			if t.waits > 0 {
				continue
			}
			cur = id
			d.execute(id)
			ran++
			progressed = true
			if i == b.next {
				b.next++
			}
		}
		if !progressed {
			return ran, nil
		}
	}
}

// execute runs one thread and notifies dependents.
func (d *DepScheduler) execute(id ThreadID) {
	t := &d.threads[id]
	t.fn(t.arg1, t.arg2)
	t.done = true
	d.pending--
	for _, dep := range t.dependents {
		d.threads[dep].waits--
	}
}

// cycleError builds the diagnosable cycle report once a run stops making
// progress. At that point no thread is runnable, so every unfinished
// thread has waits > 0 — the residue of the implicit Kahn sort — and each
// waits on at least one other residue member. Following those waits-on
// edges (recovered by inverting the dependents lists within the residue)
// must therefore revisit a thread, and the walked loop is the witness
// cycle.
func (d *DepScheduler) cycleError() *DependencyCycleError {
	var residue []ThreadID
	inResidue := make(map[ThreadID]bool)
	for id := range d.threads {
		t := &d.threads[id]
		if !t.done && t.waits > 0 {
			residue = append(residue, ThreadID(id))
			inResidue[ThreadID(id)] = true
		}
	}
	if len(residue) == 0 {
		return &DependencyCycleError{}
	}
	// pred[x] = one unfinished predecessor x waits on, from the inverted
	// dependents edges. Deterministic: threads are scanned in ID order.
	pred := make(map[ThreadID]ThreadID, len(residue))
	for _, id := range residue {
		for _, dep := range d.threads[id].dependents {
			if inResidue[dep] {
				pred[dep] = id
			}
		}
	}
	seen := make(map[ThreadID]int, len(residue))
	var path []ThreadID
	cur := residue[0]
	for {
		if i, ok := seen[cur]; ok {
			return &DependencyCycleError{
				Cycle: append([]ThreadID(nil), path[i:]...),
				Stuck: len(residue),
			}
		}
		seen[cur] = len(path)
		path = append(path, cur)
		next, ok := pred[cur]
		if !ok {
			// Unreachable when the residue invariant holds (every stuck
			// thread has a stuck predecessor); report the count alone
			// rather than panic inside error construction.
			return &DependencyCycleError{Stuck: len(residue)}
		}
		cur = next
	}
}

// reset discards all thread state; IDs from before are invalid. The
// ready-set buffer keeps its capacity for the next run.
func (d *DepScheduler) reset() {
	d.threads = d.threads[:0]
	d.bins = d.bins[:0]
	d.binIdx = make(map[binKey]int)
	d.pending = 0
}
