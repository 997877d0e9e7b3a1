package core

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// The parallel DepScheduler executor (Config.Workers > 1) is a
// barrier-free, dependence-counting dataflow run on the Scheduler's worker
// pool. A thread becomes runnable the moment its last predecessor
// finishes: the worker that finished that predecessor decrements each
// dependent's waits, keeps the first one that reaches zero and runs it
// next itself — so an SOR or PDE chain stays in the cache that already
// holds its columns — and hands any other newly runnable dependents to one
// shared ready set. Workers with nothing to run claim from that set and
// park on a condition variable while it is empty. No global step
// separates one batch of threads from the next, so a long thread delays
// only its own dependents.
//
// The ready set drains FIFO (publication order; the initial runnable
// threads are seeded bin by bin in allocation order, each bin's in forked
// order, so independent threads keep the paper's clustering). Under
// Config.CriticalPathFirst it drains tallest height first, and a worker
// continues with the tallest of the dependents its thread readied.

// dataflow is one parallel run's shared state. It lives on the
// DepScheduler (NewDep links it) so the ready set's buffer is reused
// across runs.
type dataflow struct {
	d    *DepScheduler
	ctrl *runControl

	mu      sync.Mutex
	wake    sync.Cond // signalled on publish and on the end of the run
	ready   readySet
	workers int
	idle    int  // workers parked on wake
	stop    bool // the run is over: drained, halted, or stuck
	stuck   bool // every worker idle with threads unfinished

	left atomic.Int64 // threads not yet finished
}

// runDataflow executes the DAG on min(Workers, pending) pooled workers and
// returns once every worker has quiesced: nil when all threads ran, the
// first contained *ThreadPanicError, ctx.Err() when ctx is done by then
// (cancellation wins even on a completed drain, like the serial path), or
// a *DependencyCycleError when the workers ran out of runnable threads.
func (d *DepScheduler) runDataflow(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f := &d.flow
	f.ctrl = newRunControl(ctx)
	f.workers = min(d.workers, d.pending)
	f.idle, f.stop, f.stuck = 0, false, false
	f.left.Store(int64(d.pending))
	f.ready.reset(d.critical, d.heights)
	seeded := 0
	for _, b := range d.bins {
		for _, id := range b.queue {
			if d.threads[id].waits == 0 {
				f.ready.push(id)
				seeded++
			}
		}
	}
	d.met.published.Add(0, uint64(seeded))
	d.sched.fanOut(f.workers, "dataflow", f.work)
	if f.stuck {
		return d.cycleError()
	}
	return f.ctrl.err()
}

// work is one worker's loop: claim a runnable thread, run the chain it
// starts, repeat until the run is over. A contained panic is recorded in
// the run control, which the next claim observes and ends the run on.
func (f *dataflow) work(self int) {
	sp := f.d.sched.met.span(self, "dataflow")
	defer sp.End()
	for {
		id, ok := f.claim(self)
		if !ok {
			return
		}
		if perr := f.runChain(id, self); perr != nil {
			f.ctrl.record(perr)
		}
	}
}

// claim pops the next thread from the ready set, parking while it is
// empty. It returns false once the run is over, and is where the run
// ends: on a halted control (panic or done ctx), on the last thread
// finishing, or on a worker finding every other worker parked with the
// ready set empty and threads unfinished — no thread can ever become
// runnable then, because only a running thread publishes work.
func (f *dataflow) claim(self int) (ThreadID, bool) {
	met := &f.d.met
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		switch {
		case f.stop:
			return 0, false
		case f.ctrl.halted():
			f.end()
			return 0, false
		case f.ready.len() > 0:
			return f.ready.pop(), true
		case f.left.Load() == 0:
			f.end()
			return 0, false
		case f.idle == f.workers-1:
			f.stuck = true
			f.end()
			return 0, false
		}
		f.idle++
		var start time.Time
		if met.o != nil {
			start = time.Now()
		}
		f.wake.Wait()
		if met.o != nil {
			met.idleNS.Observe(self, uint64(time.Since(start)))
		}
		f.idle--
	}
}

// end marks the run over and wakes every parked worker; f.mu is held.
func (f *dataflow) end() {
	f.stop = true
	f.wake.Broadcast()
}

// publish adds ids to the ready set and wakes parked workers for them.
func (f *dataflow) publish(self int, ids []ThreadID) {
	f.mu.Lock()
	for _, id := range ids {
		f.ready.push(id)
	}
	if f.idle > 0 {
		if len(ids) == 1 {
			f.wake.Signal()
		} else {
			f.wake.Broadcast()
		}
	}
	f.mu.Unlock()
	f.d.met.published.Add(self, uint64(len(ids)))
}

// runChain runs id, then keeps running on this worker a dependent each
// finished thread readied — the first one, or under CriticalPathFirst the
// tallest — publishing the rest, until a thread readies none or the run
// is halted: cancellation is checked before every thread after the
// claimed one, as claim checks it before the claimed one. A thread panic
// is recovered into a *ThreadPanicError naming the thread; threads that
// finished before it have already notified their dependents, which the
// abandoned run never observes past reset.
func (f *dataflow) runChain(id ThreadID, self int) (perr *ThreadPanicError) {
	d := f.d
	defer func() {
		if r := recover(); r != nil {
			perr = &ThreadPanicError{
				Value:  r,
				Phase:  "dataflow",
				Worker: self,
				Bin:    d.threads[id].bin,
				Thread: int(id),
				Stack:  debug.Stack(),
			}
		}
	}()
	var buf [4]ThreadID // holds the spill of SOR- and PDE-shaped DAGs
	out := buf[:0]
	for {
		t := &d.threads[id]
		t.fn(t.arg1, t.arg2)
		t.done = true
		next := ThreadID(-1)
		out = out[:0]
		for _, dep := range t.dependents {
			if atomic.AddInt32(&d.threads[dep].waits, -1) != 0 {
				continue
			}
			switch {
			case next < 0:
				next = dep
			case d.critical && d.heights[dep] > d.heights[next]:
				out = append(out, next)
				next = dep
			default:
				out = append(out, dep)
			}
		}
		f.left.Add(-1)
		if len(out) > 0 {
			f.publish(self, out)
		}
		if next < 0 || f.ctrl.halted() {
			return nil
		}
		id = next
	}
}

// readySet is the shared pool of runnable threads, guarded by dataflow.mu:
// a FIFO queue, or under CriticalPathFirst a binary max-heap on height
// with ties broken by lower ThreadID (forked order).
type readySet struct {
	ids     []ThreadID
	head    int     // FIFO: first unclaimed index
	heights []int32 // nil for FIFO
}

func (r *readySet) reset(critical bool, heights []int32) {
	r.ids, r.head, r.heights = r.ids[:0], 0, nil
	if critical {
		r.heights = heights
	}
}

func (r *readySet) len() int { return len(r.ids) - r.head }

func (r *readySet) push(id ThreadID) {
	r.ids = append(r.ids, id)
	if r.heights == nil {
		return
	}
	for i := len(r.ids) - 1; i > 0; {
		p := (i - 1) / 2
		if !r.before(r.ids[i], r.ids[p]) {
			break
		}
		r.ids[i], r.ids[p] = r.ids[p], r.ids[i]
		i = p
	}
}

func (r *readySet) pop() ThreadID {
	if r.heights == nil {
		id := r.ids[r.head]
		r.head++
		if r.head == len(r.ids) {
			r.ids, r.head = r.ids[:0], 0
		}
		return id
	}
	id := r.ids[0]
	last := len(r.ids) - 1
	r.ids[0] = r.ids[last]
	r.ids = r.ids[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && r.before(r.ids[c+1], r.ids[c]) {
			c++
		}
		if !r.before(r.ids[c], r.ids[i]) {
			break
		}
		r.ids[i], r.ids[c] = r.ids[c], r.ids[i]
		i = c
	}
	return id
}

// before orders the heap: taller first, then lower ID.
func (r *readySet) before(a, b ThreadID) bool {
	if ha, hb := r.heights[a], r.heights[b]; ha != hb {
		return ha > hb
	}
	return a < b
}
