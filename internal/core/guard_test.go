package core

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestGuardTreeThroughput is the regression tripwire for hierarchical
// dispatch: on the same skewed workload, a parallel run under a
// multi-level topology (topology-aware segments plus per-level stealing)
// must not fall below the same dispatcher with no topology — the
// one-level tree, i.e. the flat dispatch. The tree exists to *add*
// locality on hierarchical machines; if its bookkeeping ever costs more
// than it recovers, this guard fails the build loudly instead of the
// regression surfacing months later in a benchmark record.
//
// It measures real throughput, so it is opt-in: set GUARD_TREE=1 (make
// guard-tree) on a quiet multicore host; it skips on a single CPU where
// parallel dispatch cannot express the difference. One run of either arm
// swings by tens of percent on a small host, so a single ratio flips
// between verdicts. The guard instead times guardPairs interleaved
// flat/tree pairs (ABAB…, so host drift hits both arms alike) and judges
// the distribution of per-pair tree/flat throughput ratios: it fails only
// when even the upper quartile is below 0.95, i.e. when at least three
// pairs in four show the tree more than 5% slower.
func TestGuardTreeThroughput(t *testing.T) {
	if os.Getenv("GUARD_TREE") == "" {
		t.Skip("set GUARD_TREE=1 to run the tree-vs-flat dispatch throughput guard")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("host has %d CPU; parallel dispatch needs at least 2", runtime.NumCPU())
	}
	workers := runtime.NumCPU()
	if workers > 16 {
		workers = 16
	}
	topo, err := ParseTopology(fmt.Sprintf("64k:2,8m:%d", workers))
	if err != nil {
		t.Fatal(err)
	}
	const (
		n          = 200_000
		guardPairs = 31
	)
	data := make([]int64, 1<<16) // read-shared by all threads
	sink := make([]int64, n)     // one disjoint write slot per thread
	// Both arms fork the same workload once and re-run it with keep=true,
	// so a pair's two runs are back to back with no fork or GC between.
	arm := func(topo *Topology) *Scheduler {
		s := New(Config{CacheSize: 2 << 20, BlockSize: 1 << 14, Workers: workers, Topology: topo})
		for i := 0; i < n; i++ {
			s.Fork(func(a1, _ int) {
				// A cache-touching body so dispatch cost is measured
				// against real work, not an empty function call.
				base := (a1 * 61) & (len(data) - 64)
				sum := int64(0)
				for j := 0; j < 64; j++ {
					sum += data[base+j]
				}
				sink[a1] = sum
			}, i, 0, uint64(i%(8+i%29))<<14, 0, 0)
		}
		s.Run(true) // warm the pool, caches and branch predictors off the record
		return s
	}
	flatS, treeS := arm(nil), arm(topo)
	defer flatS.Close()
	defer treeS.Close()
	runtime.GC()
	timed := func(s *Scheduler) float64 {
		start := time.Now()
		s.Run(true)
		return time.Since(start).Seconds()
	}
	ratios := make([]float64, guardPairs)
	for p := range ratios {
		flat := timed(flatS)
		tree := timed(treeS)
		ratios[p] = flat / tree // tree throughput / flat throughput
	}
	sort.Float64s(ratios)
	q1, med, q3 := quantile(ratios, 0.25), quantile(ratios, 0.5), quantile(ratios, 0.75)
	t.Logf("tree(%s)/flat throughput over %d pairs: median %.2fx, quartiles %.2fx-%.2fx (min %.2fx, max %.2fx)",
		topo, guardPairs, med, q1, q3, ratios[0], ratios[len(ratios)-1])
	if q3 < 0.95 {
		t.Errorf("hierarchical dispatch runs below flat in most pairs (median %.2fx, upper quartile %.2fx < 0.95): tree bookkeeping has regressed",
			med, q3)
	}
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
