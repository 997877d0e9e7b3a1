package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func mustTopo(t *testing.T, spec string) *Topology {
	t.Helper()
	topo, err := ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestBinTreeBoundariesNest property-checks the tree invariants over
// random shapes: every level's starts are strictly ascending, end in the
// sentinel, and are a subset of the level below's (coarser bubbles align
// on finer ones), so any walk that respects boundaries at one level
// respects them at all deeper levels.
func TestBinTreeBoundariesNest(t *testing.T) {
	topo := mustTopo(t, "32k:2,256k:8,2m:32")
	check := func(nBins uint16, binShift uint8) bool {
		n := int(nBins%4096) + 1
		binBytes := uint64(1) << (binShift % 22) // 1 B .. 2 MB
		tree := buildBinTree(n, binBytes, topo)
		for l := 0; l < topo.Levels(); l++ {
			s := tree.starts[l]
			if s[0] != 0 || s[len(s)-1] != n {
				return false
			}
			for i := 1; i < len(s); i++ {
				if s[i] <= s[i-1] {
					return false
				}
			}
			if l > 0 {
				prev := map[int]bool{}
				for _, v := range tree.starts[l-1] {
					prev[v] = true
				}
				for _, v := range s {
					if !prev[v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTopoAssignCoversTourOnce property-checks the partition invariant
// behind "every bin appears exactly once in any tree walk": topoAssign's
// ranges are disjoint, in tour order, and their union is exactly [0, n).
func TestTopoAssignCoversTourOnce(t *testing.T) {
	topos := []*Topology{
		nil, // exercised through the flat startsToRanges path
		mustTopo(t, "64k:1"),
		mustTopo(t, "32k:2,256k:8"),
		mustTopo(t, "32k:2,256k:8,2m:32"),
	}
	check := func(seed int64, nBins uint16, workers uint8) bool {
		n := int(nBins%2048) + 1
		w := int(workers%64) + 1
		rng := rand.New(rand.NewSource(seed))
		weights := make([]int, n)
		for i := range weights {
			weights[i] = rng.Intn(100) + 1
		}
		for _, topo := range topos {
			var asn []segRange
			if topo == nil {
				asn = startsToRanges(PartitionWeights(weights, w), n)
			} else {
				asn = topoAssign(weights, w, buildBinTree(n, 1<<14, topo))
			}
			covered := make([]int, n)
			prevHi := 0
			for _, r := range asn {
				if r.lo > r.hi || r.lo < 0 || r.hi > n {
					return false
				}
				if r.lo < prevHi && r.lo != r.hi {
					return false // out of tour order or overlapping
				}
				for i := r.lo; i < r.hi; i++ {
					covered[i]++
				}
				if r.hi > prevHi {
					prevHi = r.hi
				}
			}
			for _, c := range covered {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopoAssignOneLevelMatchesFlat pins the degenerate-case contract:
// under a 1-level topology the tree partition is PartitionWeights, index
// for index.
func TestTopoAssignOneLevelMatchesFlat(t *testing.T) {
	topo := mustTopo(t, "1m:64")
	check := func(seed int64, nBins uint16, workers uint8) bool {
		n := int(nBins%1024) + 1
		w := int(workers%48) + 1
		rng := rand.New(rand.NewSource(seed))
		weights := make([]int, n)
		for i := range weights {
			weights[i] = rng.Intn(50) + 1
		}
		flat := startsToRanges(PartitionWeights(weights, w), n)
		tree := topoAssign(weights, w, buildBinTree(n, 1<<14, topo))
		// topoAssign pads unused workers with empty ranges; the used prefix
		// must match exactly.
		if len(tree) < len(flat) {
			return false
		}
		if !reflect.DeepEqual(tree[:len(flat)], flat) {
			return false
		}
		for _, r := range tree[len(flat):] {
			if r.lo != r.hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAlignStealStaysInside checks wide-steal cuts always land strictly
// inside the victim range, on a boundary when one exists.
func TestAlignStealStaysInside(t *testing.T) {
	topo := mustTopo(t, "16k:2,64k:8")
	tree := buildBinTree(1000, 1<<13, topo) // 2 bins per l0 node, 8 per l1
	boundary := map[int]bool{}
	for _, v := range tree.starts[0] {
		boundary[v] = true
	}
	for _, r := range [][2]int{{0, 1000}, {3, 9}, {500, 502}, {1, 3}, {997, 1000}} {
		lo, hi := r[0], r[1]
		cut := tree.alignSteal(0, lo, hi)
		if cut <= lo || cut >= hi {
			t.Errorf("alignSteal(%d, %d) = %d, outside (%d, %d)", lo, hi, cut, lo, hi)
		}
		hasBoundary := false
		for b := lo + 1; b < hi; b++ {
			if boundary[b] {
				hasBoundary = true
				break
			}
		}
		if hasBoundary && !boundary[cut] {
			t.Errorf("alignSteal(%d, %d) = %d, not on a boundary though one exists", lo, hi, cut)
		}
	}
}

// treeEquivConfig builds two schedulers differing only in topology.
func treeEquivConfig(workers int, topo *Topology) Config {
	return Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Workers: workers, Topology: topo}
}

// forkSkewed forks the skewed workload of TestParallelRunWorkerCounts.
func forkSkewed(s *Scheduler, counts []int32, n int) {
	for i := 0; i < n; i++ {
		s.Fork(func(a1, _ int) { atomic.AddInt32(&counts[a1], 1) }, i, 0,
			uint64(i%(8+i%29))<<13, 0, 0)
	}
}

// TestTreeOneLevelMatchesFlatTour pins the 1-level equivalence contract
// end to end through the scheduler: tour order (via RunEach, which is
// common to both), run stats, and per-bin occupancy are bit-identical
// between a flat scheduler and a 1-level-topology scheduler, and a
// parallel run through the tree dispatcher runs the same threads with the
// same stats.
func TestTreeOneLevelMatchesFlatTour(t *testing.T) {
	for _, tour := range []TourOrder{TourAllocation, TourMorton, TourHilbert} {
		flat := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Tour: tour})
		oneLvl := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Tour: tour,
			Topology: mustTopo(t, "1m:64")})
		const n = 3000
		fc, oc := make([]int32, n), make([]int32, n)
		forkSkewed(flat, fc, n)
		forkSkewed(oneLvl, oc, n)
		var flatOrder, oneOrder [][2]int
		flat.RunEach(true, func(bin, threads int) { flatOrder = append(flatOrder, [2]int{bin, threads}) })
		oneLvl.RunEach(true, func(bin, threads int) { oneOrder = append(oneOrder, [2]int{bin, threads}) })
		if !reflect.DeepEqual(flatOrder, oneOrder) {
			t.Fatalf("tour=%v: bin visit order diverged", tour)
		}
		if f, o := flat.LastRun(), oneLvl.LastRun(); f != o {
			t.Fatalf("tour=%v: run stats diverged: %+v vs %+v", tour, f, o)
		}
		if f, o := flat.TourOccupancy(), oneLvl.TourOccupancy(); !reflect.DeepEqual(f, o) {
			t.Fatalf("tour=%v: tour occupancy diverged", tour)
		}
		// Drain both through their parallel dispatchers (flat segmented vs
		// 1-level tree) and compare outcomes.
		flat2 := New(treeEquivConfig(4, nil))
		one2 := New(treeEquivConfig(4, mustTopo(t, "1m:64")))
		fc2, oc2 := make([]int32, n), make([]int32, n)
		forkSkewed(flat2, fc2, n)
		forkSkewed(one2, oc2, n)
		flat2.Run(false)
		one2.Run(false)
		flat2.Close()
		one2.Close()
		for i := 0; i < n; i++ {
			if fc2[i] != 1 || oc2[i] != 1 {
				t.Fatalf("thread %d: flat ran %d, tree ran %d", i, fc2[i], oc2[i])
			}
		}
		if f, o := flat2.LastRun(), one2.LastRun(); f != o {
			t.Fatalf("parallel run stats diverged: %+v vs %+v", f, o)
		}
	}
}

// TestTreeRunAllTopologies runs the skewed workload through multi-level
// trees at several worker counts and checks every thread runs exactly
// once; under -race this is also the bins-stay-contained proof for the
// hierarchical dispatcher.
func TestTreeRunAllTopologies(t *testing.T) {
	specs := []string{"16k:1,128k:4", "16k:2,128k:4,1m:16", "16k:2:4,64k:4:8,1m:16"}
	for _, spec := range specs {
		for _, w := range []int{2, 3, 4, runtime.NumCPU() + 1} {
			s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Workers: w,
				Topology: mustTopo(t, spec)})
			const n = 4000
			counts := make([]int32, n)
			forkSkewed(s, counts, n)
			s.Run(false)
			s.Close()
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("topo=%s workers=%d: thread %d ran %d times", spec, w, i, c)
				}
			}
		}
	}
}

// TestTreeRunKeepsBinsOnOneWorker is TestSegmentedRunKeepsBinsOnOneWorker
// through the hierarchical dispatcher: per-bin slices appended without
// synchronization, enforced by the race detector.
func TestTreeRunKeepsBinsOnOneWorker(t *testing.T) {
	const bins = 37
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 4,
		Topology: mustTopo(t, "8k:2,64k:4")})
	perBin := make([][]int, bins)
	total := 0
	for j := 0; j < 50; j++ {
		for b := 0; b < bins; b++ {
			b := b
			s.Fork(func(a1, _ int) { perBin[b] = append(perBin[b], a1) }, j, 0,
				uint64(b)<<12, 0, 0)
			total++
		}
	}
	s.Run(false)
	s.Close()
	got := 0
	for b := range perBin {
		got += len(perBin[b])
		for i := 1; i < len(perBin[b]); i++ {
			if perBin[b][i] < perBin[b][i-1] {
				t.Fatalf("bin %d ran out of fork order: %v", b, perBin[b])
			}
		}
	}
	if got != total {
		t.Fatalf("ran %d threads, want %d", got, total)
	}
}

// TestTreeStealStorm manufactures maximal steal pressure at every level
// boundary: all work forks into the bins of worker 0's home subtree, so
// every other worker must steal across its level boundary to participate,
// repeatedly, while the race detector watches the segment CAS traffic.
func TestTreeStealStorm(t *testing.T) {
	for _, spec := range []string{"8k:2,32k:4", "8k:2,32k:4,256k:8"} {
		s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 8,
			StealChunk: 1, // maximal steal granularity
			Topology:   mustTopo(t, spec)})
		const n = 6000
		counts := make([]int32, n)
		var slow atomic.Int64
		for i := 0; i < n; i++ {
			s.Fork(func(a1, _ int) {
				atomic.AddInt32(&counts[a1], 1)
				// A little work so thieves catch victims mid-drain.
				if a1%97 == 0 {
					slow.Add(1)
				}
			}, i, 0, uint64(i%4)<<12, 0, 0) // 4 bins: fewer bins than workers
		}
		s.Run(false)
		s.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("topo=%s: thread %d ran %d times", spec, i, c)
			}
		}
	}
}

// TestStealChunkKnob checks the Config knob: default applied when unset,
// honored when set, and a chunk of 1 still runs everything exactly once.
func TestStealChunkKnob(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20})
	if s.cfg.StealChunk != DefaultStealChunk {
		t.Fatalf("default StealChunk = %d, want %d", s.cfg.StealChunk, DefaultStealChunk)
	}
	s = New(Config{CacheSize: 1 << 20, StealChunk: 3})
	if s.cfg.StealChunk != 3 {
		t.Fatalf("StealChunk = %d, want 3", s.cfg.StealChunk)
	}
	for _, chunk := range []int{1, 2, 64} {
		s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Workers: 4, StealChunk: chunk})
		const n = 2000
		counts := make([]int32, n)
		forkSkewed(s, counts, n)
		s.Run(false)
		s.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("chunk=%d: thread %d ran %d times", chunk, i, c)
			}
		}
	}
}

// TestDetachUpperConcurrent hammers one segment with a draining owner and
// competing thieves using different cut policies, checking every index is
// claimed exactly once across all parties.
func TestDetachUpperConcurrent(t *testing.T) {
	const n = 1 << 14
	var seg binSegment
	seg.bounds.Store(packRange(0, n))
	claimed := make([]int32, n)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // owner drains from the front
		defer wg.Done()
		for {
			lo, hi, ok := seg.take(4)
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&claimed[i], 1)
			}
		}
	}()
	thief := func(cut func(lo, hi int) int) {
		defer wg.Done()
		for {
			lo, hi, ok := seg.detachUpper(cut)
			if !ok {
				if seg.remaining() == 0 {
					return
				}
				continue // owner still holds the last index
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&claimed[i], 1)
			}
		}
	}
	go thief(func(lo, hi int) int { return lo + (hi-lo+1)/2 })
	go thief(func(lo, hi int) int { return hi - 3 })
	wg.Wait()
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("index %d claimed %d times", i, c)
		}
	}
}

// startsToRanges converts PartitionWeights output into segRanges over n
// items, the flat partition the tree assignment is compared against.
func startsToRanges(starts []int, n int) []segRange {
	segs := make([]segRange, len(starts))
	for i := range starts {
		hi := n
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		segs[i] = segRange{starts[i], hi}
	}
	return segs
}
