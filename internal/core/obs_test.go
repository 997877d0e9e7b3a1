package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"threadsched/internal/obs"
)

func snapCounter(s obs.Snapshot, name string) (obs.CounterSnap, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return obs.CounterSnap{}, false
}

func snapHistogram(s obs.Snapshot, name string) (obs.HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistogramSnap{}, false
}

// TestSchedulerObservedParallelRun checks the scheduler's metric surface
// end to end: a parallel run must account every bin and thread to some
// worker, time its segment drains, and emit worker timeline spans — and
// attaching all of that must not change what executes.
func TestSchedulerObservedParallelRun(t *testing.T) {
	o := obs.New(4).WithTimeline()
	s := New(Config{Workers: 4, BlockSize: 1 << 12, Obs: o})
	defer s.Close()
	const bins, perBin = 64, 32
	for b := 0; b < bins; b++ {
		for i := 0; i < perBin; i++ {
			s.Fork(func(int, int) {}, b, i, uint64(b)<<12, 0, 0)
		}
	}
	s.Run(false)

	snap := s.Snapshot()
	if c, ok := snapCounter(snap, "sched.bins_run"); !ok || c.Total != bins {
		t.Errorf("sched.bins_run = %+v, want total %d", c, bins)
	}
	if c, ok := snapCounter(snap, "sched.threads_run"); !ok || c.Total != bins*perBin {
		t.Errorf("sched.threads_run = %+v, want total %d", c, bins*perBin)
	}
	h, ok := snapHistogram(snap, "sched.segment_drain_ns")
	if !ok || h.Count == 0 {
		t.Errorf("sched.segment_drain_ns missing or empty: %+v", h)
	}
	if _, ok := snapCounter(snap, "sched.steals"); !ok {
		t.Error("sched.steals counter not registered")
	}
	// A nil-topology run is the one-level tree, but it registers exactly
	// the flat metric set: no per-level sched.*.l<N> and no
	// sched.tree_nodes.* metric.
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	sort.Strings(names)
	want := []string{"sched.bins_run", "sched.segment_drain_ns", "sched.steals",
		"sched.threads_run", "sched.tour_overflow"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("flat run metrics = %v, want exactly %v", names, want)
	}

	var buf bytes.Buffer
	if err := o.Timeline().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("timeline is not valid JSON: %s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"drain"`)) {
		t.Errorf("timeline has no drain spans: %s", buf.String())
	}
}

// The serial execution path attributes everything to worker 0.
func TestSchedulerObservedSerialRun(t *testing.T) {
	o := obs.New(2)
	s := New(Config{BlockSize: 1 << 12, Obs: o})
	for i := 0; i < 100; i++ {
		s.Fork(func(int, int) {}, i, 0, uint64(i%10)<<12, 0, 0)
	}
	s.Run(false)
	snap := s.Snapshot()
	if c, _ := snapCounter(snap, "sched.bins_run"); c.Total != 10 || c.PerTrack[0] != 10 {
		t.Errorf("sched.bins_run = %+v, want 10 on track 0", c)
	}
	if c, _ := snapCounter(snap, "sched.threads_run"); c.Total != 100 {
		t.Errorf("sched.threads_run = %+v, want 100", c)
	}
}

// Tour overflow is observable: an overflowing Morton tour build bumps
// sched.tour_overflow.
func TestTourOverflowCounter(t *testing.T) {
	o := obs.New(1)
	s := New(Config{BlockSize: 1 << 12, Tour: TourMorton, Obs: o})
	s.Fork(func(int, int) {}, 0, 0, uint64(1)<<(curveBits+12), 0, 0)
	s.Fork(func(int, int) {}, 1, 0, 0, 0, 0)
	s.Run(false)
	if c, ok := snapCounter(s.Snapshot(), "sched.tour_overflow"); !ok || c.Total != 1 {
		t.Errorf("sched.tour_overflow = %+v, want 1", c)
	}
}

// TestDepSchedulerObservedDataflow checks the parallel executor's
// metrics on a fan-out: a root readies four leaves, one of which runs on
// the root's worker while three go through the shared ready set, so
// dep.published counts the seeded root plus those three. The root holds
// its worker until the other worker has parked, so dep.idle_ns records
// at least one park.
func TestDepSchedulerObservedDataflow(t *testing.T) {
	o := obs.New(2)
	d := NewDep(Config{Workers: 2, BlockSize: 1 << 12, Obs: o})
	defer d.Close()
	parked := func() bool {
		d.flow.mu.Lock()
		defer d.flow.mu.Unlock()
		return d.flow.idle > 0
	}
	ran := make([]atomic.Bool, 5)
	root := d.Fork(func(int, int) {
		for deadline := time.Now().Add(10 * time.Second); !parked(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the second worker never parked")
				break
			}
		}
		ran[0].Store(true)
	}, 0, 0, 0, 0, 0)
	for i := 1; i < 5; i++ {
		i := i
		d.Fork(func(int, int) { ran[i].Store(true) }, i, 0, uint64(i%2)<<12, 0, 0, root)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("thread %d did not run", i)
		}
	}
	snap := d.Snapshot()
	if c, ok := snapCounter(snap, "dep.published"); !ok || c.Total != 4 {
		t.Errorf("dep.published = %+v, want 4 (seeded root + 3 of 4 leaves)", c)
	}
	if h, ok := snapHistogram(snap, "dep.idle_ns"); !ok || h.Count == 0 {
		t.Errorf("dep.idle_ns = %+v, want at least one park", h)
	}
}

// TestObservedRunEquivalence pins the tentpole's non-interference
// contract at the scheduler level: execution order is identical with and
// without the observability layer attached.
func TestObservedRunEquivalence(t *testing.T) {
	runOrder := func(o *obs.Obs) []int {
		var order []int
		s := New(Config{BlockSize: 1 << 12, Tour: TourMorton, Obs: o})
		for i := 0; i < 200; i++ {
			i := i
			s.Fork(func(int, int) { order = append(order, i) }, i, 0, uint64((i*37)%50)<<12, 0, 0)
		}
		s.Run(false)
		return order
	}
	plain := runOrder(nil)
	observed := runOrder(obs.New(2).WithTimeline())
	if len(plain) != len(observed) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("execution order diverges at %d: %d vs %d", i, plain[i], observed[i])
		}
	}
}
