package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"threadsched/internal/core"
	"threadsched/internal/harness"
	"threadsched/internal/obs"
)

// The hierarchical dispatch sweep recorded into BENCH_CORE (schema v3).
// Unlike the table experiments, which run the trace-driven simulator,
// this measures the scheduler's own dispatch layer live on the host: the
// same skewed fork workload runs through the bin tree dispatcher with no
// topology (the one-level tree, i.e. flat) and under each multi-level
// topology, at several worker counts, recording threads/sec plus the
// per-level steal counters the tree dispatcher splits out
// (sched.steals.l0 innermost). Flat rows have topology "flat" and no
// per-level split; they are the baseline the guard-tree tripwire
// compares against.

// topoSweepEntry is one (topology, workers) measurement.
type topoSweepEntry struct {
	Topology      string  `json:"topology"`
	Workers       int     `json:"workers"`
	Threads       int     `json:"threads"`
	WallNS        int64   `json:"wall_ns"`
	ThreadsPerSec float64 `json:"threads_per_sec"`
	// Steals is the total successful segment refills across workers.
	Steals uint64 `json:"steals"`
	// StealsPerLevel / StealBinsPerLevel split the steal traffic by the
	// cache level shared between thief and victim ("l0" innermost);
	// present only for multi-level topologies.
	StealsPerLevel    map[string]uint64 `json:"steals_per_level,omitempty"`
	StealBinsPerLevel map[string]uint64 `json:"steal_bins_per_level,omitempty"`
	// TreeNodes is the bubble count per level of the built bin tree.
	TreeNodes map[string]uint64 `json:"tree_nodes,omitempty"`
}

// sweepThreads sizes the dispatch workload per -size.
func sweepThreads(size string) int {
	switch size {
	case "quick":
		return 60_000
	case "full":
		return 400_000
	default:
		return 200_000
	}
}

// defaultSweepTopologies is the topology list when -topology is not
// given: a two-level and a three-level shape whose outer capacity matches
// the paper's 2 MB second-level cache.
var defaultSweepTopologies = []string{"64k:2,2m:8", "32k:2,256k:4,2m:16"}

// runTopoSweep measures the hierarchical dispatch sweep. topoSpec, when
// non-empty and not "flat", replaces the default topology list.
func runTopoSweep(size, topoSpec string, prog harness.Progress) ([]topoSweepEntry, error) {
	topos := defaultSweepTopologies
	if s := strings.TrimSpace(topoSpec); s != "" && !strings.EqualFold(s, "flat") {
		topos = []string{s}
	}
	var workerCounts []int
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	if last := workerCounts[len(workerCounts)-1]; last != runtime.NumCPU() {
		workerCounts = append(workerCounts, runtime.NumCPU())
	}
	if len(workerCounts) == 1 {
		// Single-CPU host: add a 2-worker row anyway so the record still
		// exercises parallel dispatch and the per-level steal counters
		// (throughput there measures time-sliced goroutines, not scaling).
		workerCounts = append(workerCounts, 2)
	}
	n := sweepThreads(size)
	var entries []topoSweepEntry
	for _, spec := range append([]string{"flat"}, topos...) {
		topo, err := core.ParseTopology(spec)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %v", spec, err)
		}
		for _, w := range workerCounts {
			e, err := measureTopo(topo, w, n)
			if err != nil {
				return nil, err
			}
			if prog != nil {
				prog("treebench: topology=%s workers=%d %.0f threads/sec", e.Topology, w, e.ThreadsPerSec)
			}
			entries = append(entries, e)
		}
	}
	return entries, nil
}

// measureTopo is one best-of-3 dispatch measurement.
func measureTopo(topo *core.Topology, workers, n int) (topoSweepEntry, error) {
	data := make([]int64, 1<<16) // read-shared
	sink := make([]int64, n)     // disjoint per-thread write slots
	e := topoSweepEntry{Topology: topo.String(), Workers: workers, Threads: n}
	for rep := 0; rep < 3; rep++ {
		o := obs.New(workers)
		s := core.New(core.Config{
			CacheSize: 2 << 20,
			BlockSize: 1 << 14,
			Workers:   workers,
			Topology:  topo,
			Obs:       o,
		})
		for i := 0; i < n; i++ {
			s.Fork(func(a1, _ int) {
				base := (a1 * 61) & (len(data) - 64)
				sum := int64(0)
				for j := 0; j < 64; j++ {
					sum += data[base+j]
				}
				sink[a1] = sum
			}, i, 0, uint64(i%(8+i%29))<<14, 0, 0)
		}
		start := time.Now()
		s.Run(false)
		wall := time.Since(start)
		s.Close()
		if e.WallNS == 0 || wall.Nanoseconds() < e.WallNS {
			e.WallNS = wall.Nanoseconds()
			e.ThreadsPerSec = float64(n) / wall.Seconds()
			fillStealCounters(&e, o.Snapshot())
		}
	}
	return e, nil
}

// fillStealCounters extracts the flat and per-level steal counters (and
// the tree-shape gauges) from an observability snapshot.
func fillStealCounters(e *topoSweepEntry, snap obs.Snapshot) {
	e.Steals = 0
	e.StealsPerLevel, e.StealBinsPerLevel, e.TreeNodes = nil, nil, nil
	for _, c := range snap.Counters {
		switch {
		case c.Name == "sched.steals":
			e.Steals = c.Total
		case strings.HasPrefix(c.Name, "sched.steals.l"):
			if e.StealsPerLevel == nil {
				e.StealsPerLevel = map[string]uint64{}
			}
			e.StealsPerLevel[strings.TrimPrefix(c.Name, "sched.steals.")] = c.Total
		case strings.HasPrefix(c.Name, "sched.steal_bins.l"):
			if e.StealBinsPerLevel == nil {
				e.StealBinsPerLevel = map[string]uint64{}
			}
			e.StealBinsPerLevel[strings.TrimPrefix(c.Name, "sched.steal_bins.")] = c.Total
		}
	}
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "sched.tree_nodes.l") {
			if e.TreeNodes == nil {
				e.TreeNodes = map[string]uint64{}
			}
			e.TreeNodes[strings.TrimPrefix(g.Name, "sched.tree_nodes.")] = g.Max
		}
	}
}
