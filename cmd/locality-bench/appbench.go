package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"threadsched/internal/harness"
)

// appRecord is the machine-readable application-kernel record written by
// -appbench (see BENCH_APPS.json). Its schema string versions the format.
type appRecord struct {
	Schema string              `json:"schema"`
	Date   string              `json:"date"`
	Go     string              `json:"go"`
	CPUs   int                 `json:"cpus"`
	Reps   int                 `json:"reps"`
	Apps   []harness.AppResult `json:"apps"`
	// Note names the host (CPUs, GOMAXPROCS, CPU model) and documents
	// measurement caveats (e.g. a single-core host, where parallel worker
	// speedups measure coordination overhead, not scaling).
	Note string `json:"note,omitempty"`
}

// runAppBench benchmarks the four application kernels and writes the
// record to path.
func runAppBench(prog harness.Progress, path string, reps int) error {
	apps := harness.AppBench(reps, prog)
	rec := appRecord{
		Schema: "threadsched/bench-apps/v1",
		Date:   time.Now().UTC().Format(time.RFC3339),
		Go:     runtime.Version(),
		CPUs:   runtime.NumCPU(),
		Reps:   reps,
		Apps:   apps,
	}
	rec.Note = fmt.Sprintf("host: %d CPUs, GOMAXPROCS %d, %s", rec.CPUs, runtime.GOMAXPROCS(0), cpuModel())
	switch {
	case rec.CPUs == 1:
		rec.Note += "; single-core host: parallel worker counts measure scheduler " +
			"coordination overhead, not scaling; kernel_speedup (serial vs serial) " +
			"is the meaningful comparison here"
	case rec.CPUs < 4:
		rec.Note += fmt.Sprintf("; parallel_speedup_4w runs 4 workers on %d CPUs, "+
			"so it is bounded by %d, not 4", rec.CPUs, rec.CPUs)
	}
	for _, a := range apps {
		kernelRef, kernel := a.SerialRefNS, a.SerialNS
		if a.KernelNS > 0 {
			kernelRef, kernel = a.KernelRefNS, a.KernelNS
		}
		fmt.Printf("%-8s %-14s kernel %8.3fms -> %8.3fms (%.2fx)  threaded %8.3fms  "+
			"parallel w4 %8.3fms (%.2fx)  %.2f %s\n",
			a.App, a.Size,
			float64(kernelRef)/1e6, float64(kernel)/1e6, a.KernelSpeedup,
			float64(a.ThreadedNS)/1e6,
			float64(a.ParallelNS["4"])/1e6, a.ParallelSpeedup4W,
			a.Throughput, a.Unit)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d apps)\n", path, len(apps))
	return nil
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown CPU
// model" where that file is missing.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU model"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU model"
}
