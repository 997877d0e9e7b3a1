package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/cache"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// The replay workload replays one trace file, interchanged matmul at
// n=256 (about 64M references, 270 MB), with the cmd/tracesim binary at
// its default flags plus -scale 16.

const (
	replayN     = 256
	replayScale = 16
)

// replayDigest is the SHA-256 of tracesim's report on the trace,
// classification line included. When it was pinned, -mode serial printed
// the same report (see -pin).
const replayDigest = "11ff927036b7eae61de9556d7249394660b41fe038a06fc6b75ba06b83971569"

// writeTrace writes the workload's trace to path the way
// examples/tracegen does: the traced kernel emits through a model CPU
// straight into a trace.Writer.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := trace.NewWriter(f)
	matmul.NewTraced(sim.NewCPU(w), vm.NewAddressSpace(), replayN).Interchanged()
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTracesim runs the tracesim binary and returns its report and wall
// time, process start included.
func (e *env) runTracesim(args ...string) (string, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.tracesim, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	d := time.Since(start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		e.childRSS = max(e.childRSS, ru.Maxrss)
	}
	if err != nil {
		return "", d, fmt.Errorf("tracesim %v: %w", args, err)
	}
	return out.String(), d, nil
}

func runReplay(e *env) error {
	path := filepath.Join(e.work, "matmul256.trace")
	_, release, err := setupMedian(e, func() (struct{}, func(), error) {
		return struct{}{}, func() {}, writeTrace(path)
	})
	defer release()
	if err != nil {
		return err
	}
	args := []string{"-scale", strconv.Itoa(replayScale), path}
	if e.trace {
		return traceReplay(e, path, args)
	}
	times, err := e.measure(3, func() (time.Duration, error) {
		report, d, err := e.runTracesim(args...)
		if err != nil {
			return 0, err
		}
		got := digest(report)
		e.check(got == replayDigest, "replay report digest %s, pinned %s:\n%s", got, replayDigest, report)
		return d, nil
	})
	if err != nil {
		return err
	}
	e.set("op_ms", median(times)*1e3, "ms")
	return nil
}

// pinReplay prints the digest of tracesim's report in its default and
// its serial mode.
func pinReplay(e *env) error {
	path := filepath.Join(e.work, "matmul256.trace")
	if err := writeTrace(path); err != nil {
		return err
	}
	scale := strconv.Itoa(replayScale)
	report, _, err := e.runTracesim("-scale", scale, path)
	if err != nil {
		return err
	}
	serial, _, err := e.runTracesim("-mode", "serial", "-scale", scale, path)
	if err != nil {
		return err
	}
	fmt.Printf("replay digest %s, serial mode %s\n%s", digest(report), digest(serial), report)
	e.check(report == serial, "tracesim -mode serial prints a different report")
	return nil
}

var reportLine = regexp.MustCompile(`(?m)^(L1I|L1D|L2)\s.*\smisses\s+(\d+)\s`)

// reportMisses reads the L1 (I+D) and L2 miss counts from a tracesim
// report.
func reportMisses(report string) (l1, l2 uint64) {
	for _, m := range reportLine.FindAllStringSubmatch(report, -1) {
		n, _ := strconv.ParseUint(m[2], 10, 64)
		if m[1] == "L2" {
			l2 += n
		} else {
			l1 += n
		}
	}
	return l1, l2
}

// traceReplay times tracesim, then replays the same file in process,
// timing each layer tracesim's default path goes through: trace.LoadFile,
// MemFile.ForEachBatch (its wait for decoded batches) and the hierarchy's
// RecordBatch. Decode alone (CountRefs) and the address-sliced replay
// against a serial replay of the same declassified configuration are
// timed on their own.
func traceReplay(e *env, path string, args []string) error {
	cfg := machine.R8000().Scaled(replayScale).Caches
	plain := cfg
	plain.L1I.Classify, plain.L1D.Classify, plain.L2.Classify = false, false, false

	var procs, load, wait, record, decode, sliced, serial []float64
	var counts cacheCounts
	start := time.Now()
	for len(procs) == 0 || time.Since(start) < e.seconds {
		report, d, err := e.runTracesim(args...)
		if err != nil {
			return err
		}
		procs = append(procs, d.Seconds())

		t0 := time.Now()
		mf, err := trace.LoadFile(path)
		if err != nil {
			return err
		}
		load = append(load, time.Since(t0).Seconds())
		h, err := cache.NewHierarchy(cfg, nil)
		if err != nil {
			return err
		}
		rec := &timedRecorder{h: h}
		t0 = time.Now()
		if err := mf.ForEachBatch(e.nproc, func(refs []trace.Ref) error {
			rec.RecordBatch(refs)
			return nil
		}); err != nil {
			return err
		}
		wait = append(wait, (time.Since(t0) - rec.busy).Seconds())
		record = append(record, rec.busy.Seconds())
		counts = cacheCounts{}
		counts.add(h)
		l1, l2 := reportMisses(report)
		e.check(l1 == counts.l1 && l2 == counts.l2 && counts.refs == mf.Records(),
			"in-process replay: %d refs, misses L1 %d L2 %d; tracesim: %d refs, L1 %d L2 %d",
			counts.refs, counts.l1, counts.l2, mf.Records(), l1, l2)

		t0 = time.Now()
		c, err := mf.CountRefs(e.nproc)
		if err != nil {
			return err
		}
		decode = append(decode, time.Since(t0).Seconds())
		e.check(c.Total() == mf.Records(), "CountRefs %d refs, trailer %d", c.Total(), mf.Records())

		sh, err := sim.NewShardedHierarchy(plain, e.nproc)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := sh.Replay(mf, e.nproc); err != nil {
			return err
		}
		sliced = append(sliced, time.Since(t0).Seconds())
		hs, err := cache.NewHierarchy(plain, nil)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := mf.ForEachBatch(e.nproc, func(refs []trace.Ref) error {
			hs.RecordBatch(refs)
			return nil
		}); err != nil {
			return err
		}
		serial = append(serial, time.Since(t0).Seconds())
		merged := sh.Merged()
		e.check(merged.Summarize() == hs.Summarize() && merged.Refs() == hs.Refs(),
			"sliced replay %+v, serial %+v", merged.Summarize(), hs.Summarize())
		if err := mf.Close(); err != nil {
			return err
		}
	}
	ld, wt, rc := median(load), median(wait), median(record)
	e.set("trace.load_s", ld, "s")
	e.set("trace.wait_s", wt, "s")
	e.set("trace.decode_s", median(decode), "s")
	e.setCacheMetrics(rc, counts)
	e.set("sim.sliced_s", median(sliced), "s")
	e.set("sim.sliced_serial_s", median(serial), "s")
	// The three layers partition the in-process replay. The remainder of
	// tracesim's own wall time (process start, the report) comes from a
	// second process, whose time on a shared host can differ from the
	// in-process replay's by a third, so it is reported but not checked
	// against layerShare.
	proc := median(procs)
	e.set("replay.other_s", proc-(ld+wt+rc), "s")
	e.set("obs.overhead_frac", (ld+wt+rc)/proc-1, "ratio")
	return nil
}
