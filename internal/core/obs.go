package core

import (
	"fmt"
	"time"

	"threadsched/internal/obs"
)

// Scheduler metric names, resolved once at construction so the hot paths
// touch pre-looked-up handles only. All are sharded per worker track:
//
//	sched.bins_run          bins executed, per worker — the bins-per-worker split
//	sched.threads_run       threads executed, per worker
//	sched.steals            successful segment steals, per thief worker
//	sched.segment_drain_ns  time to drain one contiguous segment (initial or stolen)
//	sched.tour_overflow     tour builds that saw a block coordinate ≥ 2^curveBits
//	dep.idle_ns             parallel DepScheduler worker park time (histogram, one sample per park)
//	dep.published           threads handed to the parallel DepScheduler's shared ready set
//
// With a multi-level Topology, hierarchical dispatch additionally splits
// the steal and drain traffic per cache level (l0 innermost):
//
//	sched.steals.l<N>      successful steals whose victim shares the thief's level-N cache, per thief
//	sched.steal_bins.l<N>  bins moved by those steals, per thief
//	sched.drain_bins.l<N>  bins drained out of segments stolen at level N, per worker
//	sched.drain_bins.home  bins drained out of workers' initial (home) segments
//	sched.tree_nodes.l<N>  bubble count at level N for the last tree build (gauge)
//
// These per-level metrics exist only when the topology has more than one
// level, so flat and 1-level runs keep the exact metric set they had.
type schedObs struct {
	o            *obs.Obs // nil when disabled; the single enabled/disabled switch
	binsRun      *obs.Counter
	threadsRun   *obs.Counter
	steals       *obs.Counter
	drainNS      *obs.Histogram
	tourOverflow *obs.Counter

	// Per-level hierarchical metrics; nil slices outside multi-level runs.
	treeSteals    []*obs.Counter
	treeStealBins []*obs.Counter
	treeDrainBins []*obs.Counter
	treeDrainHome *obs.Counter
	treeNodes     []*obs.Gauge
}

func newSchedObs(o *obs.Obs, topo *Topology) schedObs {
	if o == nil {
		return schedObs{}
	}
	r := o.Registry()
	m := schedObs{
		o:            o,
		binsRun:      r.Counter("sched.bins_run"),
		threadsRun:   r.Counter("sched.threads_run"),
		steals:       r.Counter("sched.steals"),
		drainNS:      r.Histogram("sched.segment_drain_ns"),
		tourOverflow: r.Counter("sched.tour_overflow"),
	}
	if levels := topo.Levels(); levels > 1 {
		m.treeSteals = make([]*obs.Counter, levels)
		m.treeStealBins = make([]*obs.Counter, levels)
		m.treeDrainBins = make([]*obs.Counter, levels)
		m.treeNodes = make([]*obs.Gauge, levels)
		for l := 0; l < levels; l++ {
			m.treeSteals[l] = r.Counter(fmt.Sprintf("sched.steals.l%d", l))
			m.treeStealBins[l] = r.Counter(fmt.Sprintf("sched.steal_bins.l%d", l))
			m.treeDrainBins[l] = r.Counter(fmt.Sprintf("sched.drain_bins.l%d", l))
			m.treeNodes[l] = r.Gauge(fmt.Sprintf("sched.tree_nodes.l%d", l))
		}
		m.treeDrainHome = r.Counter("sched.drain_bins.home")
	}
	return m
}

// treeShape records the bubble count per level of the tree the run built.
func (m *schedObs) treeShape(t *binTree) {
	if m.o == nil || m.treeNodes == nil {
		return
	}
	for l := range m.treeNodes {
		m.treeNodes[l].Set(0, uint64(t.nodes(l)))
	}
}

// treeSteal records one successful hierarchical steal: the flat steals
// counter (so flat and tree runs stay comparable) plus the per-level
// split of steal count and bins moved.
func (m *schedObs) treeSteal(worker, level, bins int) {
	if m.o == nil {
		return
	}
	m.steals.Inc(worker)
	if m.treeSteals != nil && level >= 0 && level < len(m.treeSteals) {
		m.treeSteals[level].Inc(worker)
		m.treeStealBins[level].Add(worker, uint64(bins))
	}
}

// treeDrain attributes one contiguous drain's bins to the provenance of
// the segment they came from: prov < 0 is the worker's initial home
// segment, otherwise the level the segment was stolen at.
func (m *schedObs) treeDrain(worker, prov, bins int) {
	if m.o == nil || m.treeDrainHome == nil || bins == 0 {
		return
	}
	if prov < 0 {
		m.treeDrainHome.Add(worker, uint64(bins))
		return
	}
	if prov < len(m.treeDrainBins) {
		m.treeDrainBins[prov].Add(worker, uint64(bins))
	}
}

func (m *schedObs) enabled() bool { return m.o != nil }

// now timestamps a drain start; the zero time (and no clock read) when
// disabled.
func (m *schedObs) now() time.Time {
	if m.o == nil {
		return time.Time{}
	}
	return time.Now()
}

// drainDone records one contiguous segment drain: its duration histogram
// sample, the per-worker bin count, and the timeline span.
func (m *schedObs) drainDone(worker int, start time.Time, bins int, sp obs.Span) {
	if m.o == nil {
		return
	}
	m.drainNS.Observe(worker, uint64(time.Since(start)))
	m.binsRun.Add(worker, uint64(bins))
	sp.End()
}

// span opens a timeline span on the worker's track; the no-op Span when
// the timeline is disabled.
func (m *schedObs) span(worker int, name string) obs.Span {
	if m.o == nil {
		return obs.Span{}
	}
	return m.o.Timeline().Begin(worker, name)
}

// depObs is the DepScheduler's parallel-executor instrumentation.
type depObs struct {
	o         *obs.Obs
	idleNS    *obs.Histogram
	published *obs.Counter
}

func newDepObs(o *obs.Obs) depObs {
	if o == nil {
		return depObs{}
	}
	r := o.Registry()
	return depObs{
		o:         o,
		idleNS:    r.Histogram("dep.idle_ns"),
		published: r.Counter("dep.published"),
	}
}
