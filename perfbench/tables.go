package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/nbody"
	"threadsched/internal/apps/pde"
	"threadsched/internal/apps/sor"
	"threadsched/internal/cache"
	"threadsched/internal/core"
	"threadsched/internal/harness"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// The tables workload renders the paper's classified-miss tables, one per
// kernel, at harness.Scaled() with Parallel = nproc and the default mode.

var tableNames = []string{"table3", "table5", "table7", "table9"}

// tablesDigest is the SHA-256 of the four rendered tables, concatenated
// in tableNames order. When it was pinned, ModeSerial rendered the same
// text (see -pin).
const tablesDigest = "f9c0f6990fc9c37c1a65cf552a91a8a75e48120d19d284f23d0d3359f9d064ff"

// renderTables runs the four tables with c and returns their text.
func renderTables(c harness.Config) (string, error) {
	var b strings.Builder
	for _, name := range tableNames {
		text, err := c.RunExperiment(context.Background(), name)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		b.WriteString(text)
	}
	return b.String(), nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func runTables(e *env) error {
	// Set-up builds the configuration and warms the heap and the code
	// paths with the same four tables at the Quick geometry.
	c, release, err := setupMedian(e, func() (harness.Config, func(), error) {
		warm := harness.Quick()
		warm.Parallel = e.nproc
		if _, err := renderTables(warm); err != nil {
			return harness.Config{}, nil, err
		}
		c := harness.Scaled()
		c.Parallel = e.nproc
		return c, func() {}, nil
	})
	defer release()
	if err != nil {
		return err
	}
	if e.trace {
		return traceTables(e)
	}
	times, err := e.measure(1, func() (time.Duration, error) {
		start := time.Now()
		text, err := renderTables(c)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		got := digest(text)
		e.check(got == tablesDigest, "tables digest %s, pinned %s", got, tablesDigest)
		return d, nil
	})
	if err != nil {
		return err
	}
	e.set("op_ms", median(times)*1e3, "ms")
	return nil
}

// pinTables renders the tables in the default mode and in ModeSerial
// and prints both digests.
func pinTables(e *env) error {
	c := harness.Scaled()
	c.Parallel = e.nproc
	text, err := renderTables(c)
	if err != nil {
		return err
	}
	c.Mode = harness.ModeSerial
	serial, err := renderTables(c)
	if err != nil {
		return err
	}
	fmt.Printf("tables digest %s, serial mode %s\n", digest(text), digest(serial))
	e.check(text == serial, "ModeSerial renders different tables")
	return nil
}

// tableJob is one simulation of the four tables: the harness's own run
// of it, and the benchmark's copy of the same run, which feeds the
// hierarchy through a timing wrapper.
type tableJob struct {
	what    string
	machine func(harness.Config) machine.Machine
	harness func(harness.Config, machine.Machine) harness.SimResult
	replica func(harness.Config, machine.Machine, *sim.CPU, *vm.AddressSpace)
}

// threads builds the scheduler the harness builds for a threaded variant
// (block = 0 selects half the L2) and the traced wrapper over it.
func threads(m machine.Machine, block uint64, cpu *sim.CPU, as *vm.AddressSpace) *sim.Threads {
	l2 := m.L2CacheSize()
	if block == 0 {
		block = l2 / 2
	}
	return sim.NewThreads(cpu, as, core.New(core.Config{CacheSize: l2, BlockSize: block}))
}

func r8000(c harness.Config) machine.Machine      { return c.R8000() }
func nbodyR8000(c harness.Config) machine.Machine { return c.NBodyR8000() }

// tableJobs mirrors the jobs of Tables 3, 5, 7 and 9 in
// internal/harness/experiments.go and the runners in runners.go. The
// traced run checks every copy's summary against the harness's own run,
// so a change to either side shows as a failed check.
var tableJobs = []tableJob{
	{"table3 untiled", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult {
			return c.RunMatmul(harness.MatmulInterchanged, m)
		},
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			matmul.NewTraced(cpu, as, c.MatmulN).Interchanged()
		}},
	{"table3 tiled", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult {
			return c.RunMatmul(harness.MatmulTiledInterchanged, m)
		},
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			matmul.NewTraced(cpu, as, c.MatmulN).TiledInterchanged(matmul.TileFor(m.L2CacheSize()))
		}},
	{"table3 threaded", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult {
			return c.RunMatmul(harness.MatmulThreaded, m)
		},
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			matmul.NewTraced(cpu, as, c.MatmulN).Threaded(threads(m, 0, cpu, as))
		}},
	{"table5 regular", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult { return c.RunPDE(harness.PDERegular, m) },
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			pde.NewTracedGrid(cpu, as, c.PDEN).Regular(c.PDEIters)
		}},
	{"table5 cache-conscious", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult {
			return c.RunPDE(harness.PDECacheConscious, m)
		},
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			pde.NewTracedGrid(cpu, as, c.PDEN).CacheConscious(c.PDEIters)
		}},
	{"table5 threaded", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult { return c.RunPDE(harness.PDEThreaded, m) },
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			pde.NewTracedGrid(cpu, as, c.PDEN).Threaded(c.PDEIters, threads(m, 0, cpu, as))
		}},
	{"table7 untiled", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult { return c.RunSOR(harness.SORUntiled, m) },
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			sor.NewTracedArray(cpu, as, c.SORN).Untiled(c.SORIters)
		}},
	{"table7 hand-tiled", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult { return c.RunSOR(harness.SORHandTiled, m) },
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			s, tb := c.SORStrip, 0
			if s == 0 {
				s, tb = sor.TileParams(c.SORN, c.SORIters, m.L2CacheSize())
			}
			sor.NewTracedArray(cpu, as, c.SORN).HandTiled(c.SORIters, s, tb)
		}},
	{"table7 threaded", r8000,
		func(c harness.Config, m machine.Machine) harness.SimResult { return c.RunSOR(harness.SORThreaded, m) },
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			sor.NewTracedArray(cpu, as, c.SORN).Threaded(c.SORIters, threads(m, 0, cpu, as))
		}},
	{"table9 unthreaded", nbodyR8000,
		func(c harness.Config, m machine.Machine) harness.SimResult {
			return c.RunNBody(harness.NBodyUnthreaded, m, 1)
		},
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			nbody.StepUnthreaded(nbody.NewSystem(c.NBodyN, 42), nbody.NewTracer(cpu, as, c.NBodyN))
		}},
	{"table9 threaded", nbodyR8000,
		func(c harness.Config, m machine.Machine) harness.SimResult {
			return c.RunNBody(harness.NBodyThreaded, m, 1)
		},
		func(c harness.Config, m machine.Machine, cpu *sim.CPU, as *vm.AddressSpace) {
			// The tracer allocates in the address space before the
			// scheduler wrapper does, as in the harness.
			sys, tr := nbody.NewSystem(c.NBodyN, 42), nbody.NewTracer(cpu, as, c.NBodyN)
			nbody.StepThreadedTraced(sys, threads(m, core.DefaultBlockSize(m.L2CacheSize(), 3), cpu, as), tr)
		}},
}

// timedRecorder is the benchmark's wrapper around a cache hierarchy: it
// adds up the time spent inside the hierarchy's Record and RecordBatch.
type timedRecorder struct {
	h    *cache.Hierarchy
	busy time.Duration
}

func (r *timedRecorder) Record(ref trace.Ref) {
	start := time.Now()
	r.h.Record(ref)
	r.busy += time.Since(start)
}

func (r *timedRecorder) RecordBatch(refs []trace.Ref) {
	start := time.Now()
	r.h.RecordBatch(refs)
	r.busy += time.Since(start)
}

// cacheCounts are the exact counts a simulation pass produced.
type cacheCounts struct{ refs, l1, l2 uint64 }

func (c *cacheCounts) add(h *cache.Hierarchy) {
	s, refs := h.Summarize(), h.Refs()
	c.refs += refs.Total()
	c.l1 += s.L1Misses
	c.l2 += s.L2.Misses
}

// setCacheMetrics reports the time inside the hierarchy and the exact
// counts of the pass.
func (e *env) setCacheMetrics(record float64, n cacheCounts) {
	e.set("cache.record_s", record, "s")
	e.set("cache.ns_per_ref", record*1e9/float64(max(n.refs, 1)), "ns")
	e.set("cache.refs", float64(n.refs), "count")
	e.set("cache.l1_misses", float64(n.l1), "count")
	e.set("cache.l2_misses", float64(n.l2), "count")
}

// traceTables runs the tables' simulations serially (Parallel 1), so the
// layer times of one pass add up to its wall time: once through the
// harness, untraced, and once through the benchmark's copy of each job
// with the hierarchy wrapped. The copy's summary must equal the
// harness's.
func traceTables(e *env) error {
	c := harness.Scaled()
	var untraced, wall, emit, record []float64
	var counts cacheCounts
	start := time.Now()
	for len(wall) == 0 || time.Since(start) < e.seconds {
		want := make([]harness.SimResult, len(tableJobs))
		t0 := time.Now()
		for i, j := range tableJobs {
			want[i] = j.harness(c, j.machine(c))
		}
		untraced = append(untraced, time.Since(t0).Seconds())

		var kernels, busy time.Duration
		counts = cacheCounts{}
		t0 = time.Now()
		for i, j := range tableJobs {
			m := j.machine(c)
			h := cache.MustNewHierarchy(m.Caches, nil)
			rec := &timedRecorder{h: h}
			cpu := sim.NewCPU(rec).Buffer(0)
			as := vm.NewAddressSpace()
			k0 := time.Now()
			j.replica(c, m, cpu, as)
			cpu.Flush()
			kernels += time.Since(k0)
			busy += rec.busy
			s := h.Summarize()
			e.check(s == want[i].Summary && cpu.Instructions == want[i].Instructions,
				"%s: traced summary %+v (%d instructions), harness %+v (%d)",
				j.what, s, cpu.Instructions, want[i].Summary, want[i].Instructions)
			counts.add(h)
		}
		wall = append(wall, time.Since(t0).Seconds())
		emit = append(emit, (kernels - busy).Seconds())
		record = append(record, busy.Seconds())
	}
	w, em, rec := median(wall), median(emit), median(record)
	e.set("sim.emit_s", em, "s")
	e.setCacheMetrics(rec, counts)
	e.setOther("harness.other_s", "s", w, em+rec)
	e.set("obs.overhead_frac", w/median(untraced)-1, "ratio")
	return nil
}
