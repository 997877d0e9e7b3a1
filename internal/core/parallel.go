package core

import (
	"sync"
	"sync/atomic"
)

// Parallel Run dispatch. The tour orders (allocation, Morton, Hilbert)
// place spatially adjacent bins next to each other; handing workers bins
// one at a time from a shared counter — the obvious dispatch — therefore
// deals neighbouring bins to *different* workers, destroying exactly the
// cross-bin adjacency the tour was built to exploit and maximizing the
// read-mostly data shared between caches (the smp package simulates that
// scatter baseline). Instead the tour is cut into contiguous segments,
// one per worker, weighted by thread count; a worker that drains its
// segment steals from another, so even rebalanced work is a contiguous
// tour run. There is one dispatcher, the bin tree of tree_dispatch.go:
// without a Config.Topology it is the one-level tree, whose cut is
// PartitionWeights over bins and whose every steal takes the upper half
// of the largest remaining segment. This is the hierarchy-aware
// distribution BubbleSched-style schedulers apply to task trees, with
// the flat scheduler as its one-level case, specialized to the paper's
// 1-D bin tour.

// PartitionWeights cuts n weighted items into at most parts contiguous
// segments of near-equal total weight, returning each segment's start
// index (segment i spans starts[i] up to starts[i+1], the last one up to
// n). It never returns an empty segment: len(result) = min(parts, n), or
// nil for an empty input.
func PartitionWeights(weights []int, parts int) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	remaining := 0
	for _, w := range weights {
		remaining += w
	}
	starts := make([]int, parts)
	i := 0
	for p := 0; p < parts; p++ {
		starts[p] = i
		if p == parts-1 {
			break
		}
		target := remaining / (parts - p)
		acc := 0
		// Take at least one item; stop at the cut closest to the target
		// weight, but never starve the remaining segments of items.
		for i < n-(parts-1-p) {
			w := weights[i]
			if acc > 0 && acc+w-target > target-acc {
				break
			}
			acc += w
			i++
			if acc >= target {
				break
			}
		}
		remaining -= acc
	}
	return starts
}

// binSegment is one worker's claimable range [lo, hi) of tour indexes,
// packed into a single atomic word so both the owner's take-from-front
// and a thief's take-from-back are lock-free CAS updates on one cell.
// Padding keeps neighbouring segments off one cache line.
type binSegment struct {
	bounds atomic.Uint64
	_      [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(uint32(lo))<<32 | uint64(uint32(hi)) }

func unpackRange(v uint64) (lo, hi int) { return int(int32(v >> 32)), int(int32(v)) }

// take claims a contiguous run of the segment's lowest unclaimed indexes:
// an eighth of the remainder, at least one, at most chunk (stealChunk in
// the dispatcher). Batching the claim cuts dispatch to one atomic per
// chunk of bins while leaving the bulk of the segment in the shared word
// where thieves can still get at it — claimed bins are the owner's,
// exactly as if they had been claimed one by one. A small chunk keeps the
// work exposed to thieves shrinking in fine steps near the end of a run;
// a large one amortizes the CAS over longer runs.
func (g *binSegment) take(chunk int) (lo, hi int, ok bool) {
	for {
		v := g.bounds.Load()
		l, h := unpackRange(v)
		if l >= h {
			return 0, 0, false
		}
		n := (h - l + 7) / 8
		if n > chunk {
			n = chunk
		}
		if g.bounds.CompareAndSwap(v, packRange(l+n, h)) {
			return l, l + n, true
		}
	}
}

// remaining is the number of unclaimed indexes left in the segment.
func (g *binSegment) remaining() int {
	lo, hi := unpackRange(g.bounds.Load())
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// stealHalf detaches the upper half of the segment's remaining range,
// leaving the lower half (at least one index) to the owner so the owner
// keeps advancing through adjacent bins.
func (g *binSegment) stealHalf() (lo, hi int, ok bool) {
	return g.detachUpper(func(l, h int) int { return l + (h-l+1)/2 })
}

// detachUpper atomically detaches the upper part [cut, hi) of the
// segment's remaining range, where cut = compute(lo, hi) clamped so the
// owner keeps at least one index and the thief gets at least one. The
// hierarchical steal policies are all instances of this: a narrow steal
// computes hi-chunk, a wide steal computes the nearest subtree boundary.
func (g *binSegment) detachUpper(compute func(lo, hi int) int) (lo, hi int, ok bool) {
	for {
		v := g.bounds.Load()
		l, h := unpackRange(v)
		if h-l <= 1 {
			return 0, 0, false
		}
		cut := compute(l, h)
		if cut <= l {
			cut = l + 1
		}
		if cut >= h {
			cut = h - 1
		}
		if g.bounds.CompareAndSwap(v, packRange(l, cut)) {
			return cut, h, true
		}
	}
}

// fanOut runs fn(0..n-1) concurrently: fn(0) on the calling goroutine and
// the rest on pooled workers, so a keep=true re-run spawns no goroutines
// after the first Run. With observability attached, every worker runs
// under pprof labels naming its track and phase, so profiles of a
// parallel run split per worker.
func (s *Scheduler) fanOut(n int, phase string, fn func(worker int)) {
	if o := s.cfg.Obs; o != nil {
		inner := fn
		fn = func(w int) { o.Labeled(w, phase, func() { inner(w) }) }
	}
	if n <= 1 {
		fn(0)
		return
	}
	if s.pool == nil {
		s.pool = &workerPool{jobs: make(chan poolJob)}
	}
	s.pool.ensure(n - 1)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		s.pool.jobs <- poolJob{worker: w, fn: fn, wg: &wg}
	}
	fn(0)
	wg.Wait()
}

// workerPool parks Run's worker goroutines between calls.
type workerPool struct {
	jobs    chan poolJob
	spawned int
}

type poolJob struct {
	worker int
	fn     func(int)
	wg     *sync.WaitGroup
}

// ensure grows the pool to at least n parked workers. Only the goroutine
// calling Run touches spawned, per the scheduler's contract.
func (p *workerPool) ensure(n int) {
	for ; p.spawned < n; p.spawned++ {
		go func() {
			for j := range p.jobs {
				j.fn(j.worker)
				j.wg.Done()
			}
		}()
	}
}

// Close releases the persistent worker goroutines a parallel Run left
// parked. It is optional — an unclosed pool simply keeps its goroutines
// for the life of the process — and safe to call repeatedly; a later Run
// recreates the pool on demand. Close must not overlap a Run in progress.
func (s *Scheduler) Close() {
	if s.pool != nil {
		close(s.pool.jobs)
		s.pool = nil
	}
}
