// Command perfbench is the repository's benchmark. It runs one workload
// against the code in the checkout, checks the workload's output, and
// prints one JSON result line:
//
//	perfbench -root . -tracesim .bench_build/bin/tracesim \
//	    --workload tables|replay|native|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (op_ms, setup_s,
// peak_rss_mb); with --trace 1 it runs the workload traced and reports
// the per-layer metrics. perfbench/run.sh builds this program and
// cmd/tracesim and runs it; README.md in this directory describes every
// workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's settings, scratch directory and result.
type env struct {
	root     string // checkout root
	tracesim string // cmd/tracesim binary built from the checkout
	work     string // scratch directory of this run, removed at exit
	seed     int64
	seconds  time.Duration
	trace    bool
	nproc    int
	pin      bool    // -pin: print output digests, report no metrics
	journals int     // journal directories made so far (serve)
	invalid  int     // open-loop windows discarded as invalid (serve)
	peak     float64 // peak RSS in MB when the measured operations ended
	childRSS int64   // largest tracesim child's peak RSS in KB
	res      result
}

// set records a metric.
func (e *env) set(name string, v float64, unit string) {
	e.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one checked output, and a failure when ok is false.
func (e *env) check(ok bool, format string, args ...any) {
	e.res.Attempted++
	if !ok {
		e.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// A run sets its workload up at least minSetups times and until a second
// of set-up has passed, at most maxSetups times; setup_s is the median, so
// neither a few slow set-ups nor a cheap set-up's jitter moves it.
const (
	minSetups = 3
	maxSetups = 200
)

// setupMedian builds the workload's state as often as the constants above
// say, keeps the last and releases the others, and records the median
// build time as setup_s.
func setupMedian[T any](e *env, build func() (T, func(), error)) (T, func(), error) {
	var times []float64
	var st T
	release := func() {}
	spent := 0.0
	for len(times) < minSetups || (spent < 1 && len(times) < maxSetups) {
		release()
		var zero T
		st = zero
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		s, rel, err := build()
		if err != nil {
			return st, func() {}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		times = append(times, d)
		spent += d
		st, release = s, rel
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up seconds %.4g\n", times)
	if !e.trace {
		e.set("setup_s", median(times), "s")
	}
	return st, release, nil
}

// measure runs op until the run's measuring time is spent, at least
// minOps times, and returns the time each call reports for itself (so an
// op can leave input resets out of its time).
func (e *env) measure(minOps int, op func() (time.Duration, error)) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minOps || time.Since(start) < e.seconds {
		d, err := op()
		if err != nil {
			return times, err
		}
		times = append(times, d.Seconds())
	}
	e.peak = e.peakRSSMB()
	fmt.Fprintf(os.Stderr, "perfbench: op seconds %.4g\n", times)
	return times, nil
}

// pinners print a workload's output digests for pinning them.
var pinners = map[string]func(*env) error{
	"tables": pinTables,
	"replay": pinReplay,
}

var workloads = map[string]func(*env) error{
	"tables": runTables,
	"replay": runReplay,
	"native": runNative,
	"serve":  runServe,
}

func main() {
	root := flag.String("root", ".", "root of the checkout under test")
	tracesim := flag.String("tracesim", "", "cmd/tracesim binary built from the checkout")
	name := flag.String("workload", "", "workload: tables, replay, native or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time of the run in seconds")
	traced := flag.Int("trace", 0, "1 runs the workload traced and reports per-layer metrics")
	pin := flag.Bool("pin", false, "print the output digest of the tables or replay workload in the default and the serial mode, and fail if they differ")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	e := &env{
		tracesim: *tracesim,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		pin:      *pin,
		nproc:    runtime.GOMAXPROCS(0),
		res:      result{Metrics: map[string]metric{}},
	}
	if *pin {
		run = pinners[*name]
		if run == nil {
			fmt.Fprintln(os.Stderr, "perfbench: -pin applies to the tables and replay workloads")
			os.Exit(2)
		}
	}
	if err := start(e, *root, *name, run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(e.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !e.res.Correct {
		os.Exit(1)
	}
}

// start prepares the run's scratch directory, prints the host
// fingerprint, runs the workload and fills in the run-wide metrics.
func start(e *env, root, name string, run func(*env) error) error {
	var err error
	if e.root, err = filepath.Abs(root); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(e.root, "go.mod")); err != nil {
		return fmt.Errorf("no checkout at %s: %w", e.root, err)
	}
	if name == "replay" {
		if _, err := os.Stat(e.tracesim); e.tracesim == "" || err != nil {
			return errors.New("the replay workload needs -tracesim, the cmd/tracesim binary")
		}
	}
	base := filepath.Join(e.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	if e.work, err = os.MkdirTemp(base, name+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	fp, err := json.Marshal(map[string]any{"host": fingerprint(e.root), "workload": name,
		"seed": e.seed, "seconds": e.seconds.Seconds(), "trace": e.trace})
	if err != nil {
		return err
	}
	fmt.Println(string(fp))

	wall := time.Now()
	if err := run(e); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s done in %.1fs\n", name, time.Since(wall).Seconds())
	if !e.pin {
		if !e.trace {
			e.set("peak_rss_mb", e.peak, "MB")
		}
		if err := e.completeMetrics(); err != nil {
			return err
		}
	}
	e.res.Correct = e.res.Failed == 0 && e.res.Attempted > 0
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// declared reads the metrics BENCHMARK.json declares for this kind of
// run, by name with their units: the end-to-end metrics, or with --trace
// 1 the per-layer metrics.
func (e *env) declared() (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := bench.EndToEnd
	if e.trace {
		list = bench.PerLayer
	}
	want := map[string]string{}
	for _, d := range list {
		want[d.Name] = d.Unit
	}
	return want, nil
}

// layerShare is the largest share of a traced pass's wall time that the
// named layers may leave unexplained; the remainder is reported as the
// workload's *.other_* metric.
const layerShare = 0.20

// setOther reports wall − layers, given in seconds, as the remainder
// metric name in unit (s or ms), and checks it against layerShare.
func (e *env) setOther(name, unit string, wall, layers float64) {
	other := wall - layers
	if unit == "ms" {
		other *= 1e3
	}
	e.set(name, other, unit)
	e.check(math.Abs(wall-layers) <= layerShare*wall,
		"%s: the layers explain %.4gs of the traced wall time %.4gs", name, layers, wall)
}

// completeMetrics rejects a metric BENCHMARK.json does not declare, and
// reports each per-layer metric the workload does not touch as 0: the
// layer's predicted no-change row.
func (e *env) completeMetrics() error {
	want, err := e.declared()
	if err != nil {
		return err
	}
	for name, m := range e.res.Metrics {
		if want[name] != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared", name, m.Unit)
		}
	}
	for name, unit := range want {
		if _, ok := e.res.Metrics[name]; !ok {
			if !e.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			e.set(name, 0, unit)
		}
	}
	return nil
}
