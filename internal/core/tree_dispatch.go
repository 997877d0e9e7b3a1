package core

import "context"

// Hierarchical parallel dispatch, the one parallel Run path. The tour is
// grouped into the bin tree of Config.Topology (tree.go): initial
// segments are cut along subtree boundaries so every worker cluster
// sharing a cache walks whole bubbles, and an idle worker steals by tree
// distance — nearest victims first, with a width policy per level:
//
//   - innermost level (victim shares the thief's L1 cluster): steal
//     narrow — a chunk of at most stealChunk bins off the victim's tail,
//     so siblings fine-tune load without evicting each other's bubbles;
//   - middle levels: steal half the victim's remainder;
//   - outermost level (victim shares only the last-level cache): steal
//     wide — the upper part of the victim's range cut at the nearest
//     subtree boundary of the level below, so the stolen work is a run
//     of whole bubbles the thief's own cluster can then share.
//
// Splitting is lazy, as in BubbleSched: a stolen range larger than the
// thief's innermost capacity is not re-partitioned at steal time — the
// thief starts draining it front-to-back and its idle cluster siblings
// carve their own chunks off the tail through the same per-level policy.
//
// A nil Topology (or any 1-level one) is the one-level tree, the flat
// dispatch: the initial cut is PartitionWeights over individual bins and
// every steal is a half-steal from the largest victim (stealTree's
// top==0 case).

// stealChunk bounds how many bins one segment claim or one narrow steal
// takes: small enough that a nearly-drained segment still exposes work
// to thieves, large enough to amortize the claim's CAS.
const stealChunk = 16

// runParallel executes bins across Workers goroutines; each bin runs
// entirely on one worker so the per-bin working set still fits one cache.
// Containment and cancellation are cooperative: every worker checks the
// shared runControl once per bin, so a panic on one worker (recovered
// into the control) or an expired ctx stops the whole pool at bin
// granularity, after which fanOut's barrier guarantees quiescence. With
// observability attached, each contiguous drain (the initial segment and
// every stolen refill) is timed into sched.segment_drain_ns and spanned
// on the worker's timeline track, and sched.steals counts successful
// refills per thief.
func (s *Scheduler) runParallel(ctx context.Context, order []*bin) error {
	workers := s.cfg.Workers
	if workers > len(order) {
		workers = len(order)
	}
	ctrl := newRunControl(ctx)
	topo := s.cfg.Topology
	weights := make([]int, len(order))
	for i, b := range order {
		weights[i] = b.threads
	}
	tree := buildBinTree(len(order), s.binFootprint(), topo)
	s.met.treeShape(tree)
	asn := topoAssign(weights, workers, tree)
	segs := make([]binSegment, len(asn))
	for i, r := range asn {
		segs[i].bounds.Store(packRange(r.lo, r.hi))
	}
	s.fanOut(len(segs), "run", func(self int) {
		prov := -1 // provenance of the current segment: -1 home, else steal level
		for {
			start := s.met.now()
			sp := s.met.span(self, "drain")
			bins, threads := 0, 0
			for !ctrl.halted() {
				lo, hi, ok := segs[self].take(stealChunk)
				if !ok {
					break
				}
				for i := lo; i < hi && !ctrl.halted(); i++ {
					n, perr := s.runBinContained(order[i], i, self, "run")
					threads += n
					bins++
					if perr != nil {
						ctrl.record(perr)
						break
					}
				}
			}
			s.met.threadsRun.Add(self, uint64(threads))
			s.met.treeDrain(self, prov, bins)
			s.met.drainDone(self, start, bins, sp)
			if ctrl.halted() {
				return
			}
			lvl, stolen, ok := stealTree(segs, self, workers, tree, ctrl)
			if !ok {
				return
			}
			prov = lvl
			s.met.treeSteal(self, lvl, stolen)
		}
	})
	return ctrl.err()
}

// stealTree refills segs[self] (which the caller has drained) from the
// nearest level that still has work: for each level from the innermost
// out, the victim is the worker with the most remaining bins among those
// whose closest shared cache with the thief is that level, and the steal
// width follows the level policy described in the file comment. Only a
// slot's owner refills it, so a worker that returns false and exits
// leaves its slot empty forever and every non-empty slot still has an
// active owner: "no victim with more than one bin left at any level" is
// a safe exit condition. The per-level rescan loop re-checks the run
// control so a halted run cannot keep a thief spinning against racing
// victims.
func stealTree(segs []binSegment, self, workers int, tree *binTree, ctrl *runControl) (level, bins int, ok bool) {
	topo := tree.topo
	top := topo.Levels() - 1
	for l := 0; l <= top; l++ {
		for !ctrl.halted() {
			victim, best := -1, 1
			for v := range segs {
				if v == self || topo.sharedLevel(self, v, workers) != l {
					continue
				}
				if r := segs[v].remaining(); r > best {
					victim, best = v, r
				}
			}
			if victim < 0 {
				break // no work at this level; look one level out
			}
			var lo, hi int
			var got bool
			switch {
			case top == 0:
				// One-level (flat) case: half the largest victim's
				// remainder.
				lo, hi, got = segs[victim].stealHalf()
			case l == 0:
				lo, hi, got = segs[victim].detachUpper(func(vlo, vhi int) int {
					n := (vhi - vlo) / 2
					if n > stealChunk {
						n = stealChunk
					}
					if n < 1 {
						n = 1
					}
					return vhi - n
				})
			case l == top:
				lo, hi, got = segs[victim].detachUpper(func(vlo, vhi int) int {
					return tree.alignSteal(l-1, vlo, vhi)
				})
			default:
				lo, hi, got = segs[victim].stealHalf()
			}
			if got {
				segs[self].bounds.Store(packRange(lo, hi))
				return l, hi - lo, true
			}
			// Lost the race to the victim's own progress; rescan the level.
		}
	}
	return 0, 0, false
}

// binFootprint estimates one bin's data footprint: the block volume its
// hints span — per-dimension block size times hint dimensions — which is
// what the bin tree measures level capacities against.
func (s *Scheduler) binFootprint() uint64 {
	b := s.cfg.BlockSize
	d := uint64(s.cfg.Dims)
	if d == 0 {
		d = MaxHints
	}
	if b == 0 {
		return 1
	}
	if b > ^uint64(0)/d {
		return ^uint64(0)
	}
	return b * d
}
