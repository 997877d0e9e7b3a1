package core

import "sort"

// The multi-level bin tree. The flat scheduler walks the bin tour as one
// linear sequence; hierarchical scheduling groups that same tour into
// nested contiguous ranges ("bubbles") mirroring the cache topology: a
// level-0 node is a run of consecutive tour bins whose estimated
// footprint fits one innermost cache, a level-1 node is a run of level-0
// nodes fitting the next cache out, and so on. The tree never reorders
// the tour — every node covers a contiguous [lo, hi) range of tour
// indexes, so a tree walk visits exactly the flat tour order and the
// one-level tree is the flat tour itself. What the tree adds is
// *boundaries*: initial worker segments are cut along node edges so each
// worker cluster walks whole subtrees, and steals detach node-aligned
// ranges (whole bubbles) instead of arbitrary half-segments.

// binTree is the node-boundary index of one tour under a Topology.
type binTree struct {
	topo *Topology
	// starts[l] holds the first tour index of every level-l node in
	// ascending order, with a trailing sentinel equal to nBins; node j at
	// level l spans bins [starts[l][j], starts[l][j+1]). Level 0 is the
	// innermost cache level.
	starts [][]int
	nBins  int
}

// buildBinTree groups a tour of nBins bins into the topology's nested
// bubbles. binBytes is the estimated data footprint of one bin (the
// block volume its threads were hinted into); a run of k consecutive
// bins is placed at the deepest level whose capacity holds k*binBytes,
// which the bottom-up greedy packing below produces directly. Every
// level keeps at least one bin per node, so a topology whose innermost
// cache is smaller than one bin degenerates to one bin per leaf.
func buildBinTree(nBins int, binBytes uint64, topo *Topology) *binTree {
	if binBytes == 0 {
		binBytes = 1
	}
	t := &binTree{topo: topo, nBins: nBins}
	levels := topo.Levels()
	t.starts = make([][]int, levels)
	// Level 0: fixed-width runs of binsPer bins.
	binsPer := nodeBins(topo.Level(0).Capacity, binBytes)
	l0 := make([]int, 0, nBins/binsPer+2)
	for i := 0; i < nBins; i += binsPer {
		l0 = append(l0, i)
	}
	t.starts[0] = append(l0, nBins)
	// Level l: pack consecutive level-(l-1) nodes while the combined bin
	// span fits the level's capacity, always taking at least one child.
	for l := 1; l < levels; l++ {
		budget := nodeBins(topo.Level(l).Capacity, binBytes)
		prev := t.starts[l-1]
		cur := make([]int, 0, len(prev))
		for j := 0; j < len(prev)-1; {
			cur = append(cur, prev[j])
			j++
			for j < len(prev)-1 && prev[j+1]-cur[len(cur)-1] <= budget {
				j++
			}
		}
		t.starts[l] = append(cur, nBins)
	}
	return t
}

// nodeBins is how many bins fit one cache of the given capacity.
func nodeBins(capacity, binBytes uint64) int {
	n := capacity / binBytes
	if n < 1 {
		return 1
	}
	const maxInt = int(^uint(0) >> 1)
	if n > uint64(maxInt) {
		return maxInt
	}
	return int(n)
}

// nodes returns the number of level-l nodes.
func (t *binTree) nodes(l int) int { return len(t.starts[l]) - 1 }

// alignSteal picks the steal cut for a wide (subtree) steal from a
// victim currently spanning [lo, hi): the level-l node boundary nearest
// the range's midpoint, strictly inside (lo, hi), so the detached upper
// part [cut, hi) is a run of whole level-l subtrees. It falls back to
// the plain midpoint when no boundary is strictly inside the range.
func (t *binTree) alignSteal(l, lo, hi int) int {
	mid := lo + (hi-lo+1)/2
	s := t.starts[l]
	// First boundary > lo; boundaries are sorted and unique.
	i := sort.SearchInts(s, lo+1)
	if i >= len(s) || s[i] >= hi {
		return mid
	}
	// Walk to the boundary nearest mid while staying inside (lo, hi).
	best := s[i]
	for ; i < len(s) && s[i] < hi; i++ {
		if abs(s[i]-mid) <= abs(best-mid) {
			best = s[i]
		}
	}
	return best
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// segRange is one worker's initial contiguous bin range [Lo, Hi).
type segRange struct{ lo, hi int }

// topoAssign cuts a weighted tour into one contiguous range per worker,
// recursively: at each tree level the child nodes are partitioned into
// weighted contiguous groups, one per worker cluster sharing a cache at
// the child level (PartitionWeights over node weights), and each
// cluster's range recurses a level down until single workers own ranges
// of bins. Cuts are therefore node-aligned wherever the cluster shape
// allows — worker groups that share a cache walk whole subtrees.
//
// The one-level case is *exactly* the flat partition: the recursion
// bottoms out immediately in PartitionWeights(weights, workers) over
// individual bins, so a 1-level topology reproduces the linear
// segmented dispatch bit for bit.
func topoAssign(weights []int, workers int, tree *binTree) []segRange {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	segs := make([]segRange, workers)
	for i := range segs {
		segs[i] = segRange{n, n} // leftover workers get empty ranges
	}
	// prefix[i] = total weight of bins [0, i).
	prefix := make([]int, n+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	var rec func(level, blo, bhi, wlo, whi int)
	rec = func(level, blo, bhi, wlo, whi int) {
		nw := whi - wlo
		if nw <= 0 || blo >= bhi {
			return
		}
		if nw == 1 {
			segs[wlo] = segRange{blo, bhi}
			return
		}
		if level == 0 {
			// Innermost level: cut individual bins among single workers.
			// This is the flat partition restricted to [blo, bhi).
			starts := PartitionWeights(weights[blo:bhi], nw)
			for p := range starts {
				hi := bhi
				if p+1 < len(starts) {
					hi = blo + starts[p+1]
				}
				segs[wlo+p] = segRange{blo + starts[p], hi}
			}
			return
		}
		// Group workers into clusters sharing a level-(level-1) cache and
		// cut the level-(level-1) nodes within [blo, bhi) among them.
		cs := tree.topo.clusterSize(level-1, workers)
		clusters := (nw + cs - 1) / cs
		if clusters <= 1 {
			rec(level-1, blo, bhi, wlo, whi)
			return
		}
		childLo, childHi := tree.childRange(level-1, blo, bhi)
		nChildren := childHi - childLo
		if clusters > nChildren {
			// Fewer subtrees than clusters at this granularity: descend a
			// level so the cuts can fall on finer boundaries.
			rec(level-1, blo, bhi, wlo, whi)
			return
		}
		nodeW := make([]int, nChildren)
		s := tree.starts[level-1]
		for j := 0; j < nChildren; j++ {
			lo, hi := s[childLo+j], s[childLo+j+1]
			if hi > bhi {
				hi = bhi
			}
			nodeW[j] = prefix[hi] - prefix[lo]
		}
		cuts := PartitionWeights(nodeW, clusters)
		for p := range cuts {
			cbLo := s[childLo+cuts[p]]
			cbHi := bhi
			if p+1 < len(cuts) {
				cbHi = s[childLo+cuts[p+1]]
			}
			cwLo := wlo + p*cs
			cwHi := cwLo + cs
			if cwHi > whi || p == len(cuts)-1 {
				cwHi = whi
			}
			rec(level-1, cbLo, cbHi, cwLo, cwHi)
		}
	}
	rec(tree.topo.Levels()-1, 0, n, 0, workers)
	return segs
}

// childRange returns the index range [lo, hi) of level-l nodes whose
// spans lie within the bin range [blo, bhi). The bin range is always
// node-aligned at some level >= l, and level-l boundaries refine coarser
// ones, so blo and bhi are both level-l starts (or bhi is the sentinel).
func (t *binTree) childRange(l, blo, bhi int) (int, int) {
	s := t.starts[l]
	lo := sort.SearchInts(s, blo)
	hi := sort.SearchInts(s, bhi)
	return lo, hi
}
