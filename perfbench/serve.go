package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"threadsched/internal/harness"
	"threadsched/internal/journal"
	"threadsched/internal/obs"
	"threadsched/internal/server"
)

// The serve workload drives an in-process server.New behind its own
// Handler() on a loopback listener with an open-loop generator: tiny jobs
// at a fixed rate, each job's kind and tenant drawn from the seed.

const (
	// serveRate is the offered rate, jobs per second. It keeps the server
	// far below saturation, so the median latency is the per-job cost of
	// HTTP, server and journal rather than a queue; serve.max_rate reports
	// the capacity.
	serveRate    = 50.0
	serveTenants = 4
	// lateBound is the largest p99 generator lateness (hand-off to the
	// senders past the due time) of a valid window, half an inter-arrival
	// gap. A window past it did not offer the load on schedule and is
	// invalid: its latencies are discarded and the window is offered
	// again with the same jobs. Time a job waits for a free sender counts
	// in its latency, not in lateness.
	lateBound = 10 * time.Millisecond
	// serveWindow is the length of one open-loop window of an untraced
	// run; the run offers windows until it has measured its measuring
	// time in valid ones.
	serveWindow = 5 * time.Second
	// maxInvalid is how many invalid windows one measurement may discard;
	// one more makes the run's lateness check fail.
	maxInvalid = 3
	// p99Limit is the latency limit of the max-rate ladder.
	p99Limit = 50 * time.Millisecond
	// ladderStep is how long each ladder rate is offered.
	ladderStep = 2 * time.Second
	// sampleJobs is how many results are checked against RunJob.
	sampleJobs = 8
	// recoverJobs is how many finished jobs the journal that every
	// set-up recovers holds, three records each. Replaying them is most
	// of set-up, so setup_s follows the journal and server replay path
	// rather than the two fsyncs that start an empty journal, whose time
	// on a shared disk moved threefold within minutes.
	recoverJobs = 1000
)

var serveLadder = []float64{200, 400, 600, 800, 1000, 1200, 1600}

// served is one booted server: fresh journal directory, server and
// listener.
type served struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
	// posts holds, by job index, when each POST entered and left
	// Handler(), when the server was booted traced.
	mu    sync.Mutex
	posts map[int]span
}

// span is one call's start and end.
type span struct{ start, end time.Time }

// jobHeader carries a POST's job index to the traced handler wrapper; the
// server ignores it.
const jobHeader = "X-Perfbench-Job"

func (e *env) boot(dir string, traced bool) (*served, error) {
	srv := server.New(server.Config{
		Workers:    e.nproc,
		JournalDir: dir,
		// The server's default policy. With FsyncAlways the three fsyncs
		// of every job set its latency, and the host disk's fsync time
		// moved threefold between runs minutes apart.
		JournalFsync: journal.FsyncInterval,
		Harness:      harness.Quick(),
		Obs:          obs.New(16),
	})
	if err := srv.Recover(); err != nil {
		drain(srv)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drain(srv)
		return nil, err
	}
	v := &served{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		posts: map[int]span{}}
	h := srv.Handler()
	if traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			end := time.Now()
			if i, err := strconv.Atoi(r.Header.Get(jobHeader)); err == nil && r.Method == http.MethodPost {
				v.mu.Lock()
				v.posts[i] = span{start, end}
				v.mu.Unlock()
			}
		})
	}
	v.http = &http.Server{Handler: h}
	go func() { v.done <- v.http.Serve(ln) }()
	return v, nil
}

func drain(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Drain(ctx)
}

// stop closes the listener, waits for the Serve goroutine, and drains
// the server.
func (v *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = v.http.Shutdown(ctx)
	<-v.done
	drain(v.srv)
}

// plannedJob is one generated request.
type plannedJob struct {
	req  server.Request
	body []byte
}

// planJobs draws n jobs from rng: one of four tiny kernels for one of
// serveTenants tenants.
func planJobs(rng *rand.Rand, n int) []plannedJob {
	jobs := make([]plannedJob, n)
	for i := range jobs {
		r := server.Request{Tenant: fmt.Sprintf("tenant%d", rng.Intn(serveTenants))}
		switch rng.Intn(4) {
		case 0:
			r.Kind, r.MatmulN = "matmul", 16
		case 1:
			r.Kind, r.SORN = "sor", 17
		case 2:
			r.Kind, r.PDEN = "pde", 17
		default:
			r.Kind, r.NBodyN, r.Steps = "nbody", 64, 1
		}
		body, _ := json.Marshal(r)
		jobs[i] = plannedJob{req: r, body: body}
	}
	return jobs
}

// outcome is one job's timeline as the generator saw it: due, handed to
// the senders, sent, done.
type outcome struct {
	due, dispatched, sent, done time.Time
	submit                      time.Duration // POST round trip
	status                      server.Status
	ok                          bool
}

// drive offers jobs at rate, open loop: job i is due at start + i/rate
// whatever happened to earlier jobs. nproc sender goroutines each own one
// keep-alive connection and only submit; completion is awaited in process
// (Server.Wait), so no wait ever holds a connection a submit needs.
func (e *env) drive(v *served, jobs []plannedJob, rate float64) []outcome {
	outs := make([]outcome, len(jobs))
	queue := make(chan int, len(jobs)) // one slot per job: the schedule never waits for a sender
	var senders, waiters sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		senders.Add(1)
		go func() {
			defer senders.Done()
			defer client.CloseIdleConnections()
			for i := range queue {
				o := &outs[i]
				o.sent = time.Now()
				st, err := submit(client, v.url, i, jobs[i].body)
				o.submit = time.Since(o.sent)
				if err != nil {
					o.done = time.Now()
					continue
				}
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					st, found := v.srv.Wait(st.ID, time.Minute)
					o.done = time.Now()
					o.status = st
					o.ok = found && st.State == server.StateDone
				}()
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := range jobs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		outs[i].due, outs[i].dispatched = due, time.Now()
		queue <- i
	}
	close(queue)
	senders.Wait()
	waiters.Wait()
	return outs
}

func submit(c *http.Client, url string, job int, body []byte) (server.Status, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(jobHeader, strconv.Itoa(job))
	resp, err := c.Do(req)
	if err != nil {
		return server.Status{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.Status{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return server.Status{}, fmt.Errorf("submit: %s: %s", resp.Status, b)
	}
	var st server.Status
	return st, json.Unmarshal(b, &st)
}

// phase is the summary of one open-loop window.
type phase struct {
	// seconds, of jobs that completed: due to done, due to hand-off,
	// hand-off to send, POST round trip
	latency, lateness, senderWait, submit []float64
	failed                                int
	drainAfter                            time.Duration // last completion past the last due time
}

func summarize(outs []outcome) phase {
	var p phase
	var lastDue, lastDone time.Time
	for _, o := range outs {
		if o.due.After(lastDue) {
			lastDue = o.due
		}
		if o.done.After(lastDone) {
			lastDone = o.done
		}
		if !o.ok {
			p.failed++
			continue
		}
		p.latency = append(p.latency, o.done.Sub(o.due).Seconds())
		p.lateness = append(p.lateness, o.dispatched.Sub(o.due).Seconds())
		p.senderWait = append(p.senderWait, o.sent.Sub(o.dispatched).Seconds())
		p.submit = append(p.submit, o.submit.Seconds())
	}
	p.drainAfter = lastDone.Sub(lastDue)
	return p
}

// window runs one open-loop window of d at rate on a freshly booted
// server and stops it; keep, when set, sees the server before it stops.
// The jobs are drawn from the run's seed and the window's index k, so a
// window offered again gets the same jobs.
func (e *env) window(k int, rate float64, d time.Duration, traced bool,
	keep func(*served, []outcome) error) (phase, []plannedJob, []outcome, error) {
	v, err := e.boot(e.journalDir(), traced)
	if err != nil {
		return phase{}, nil, nil, err
	}
	defer v.stop()
	rng := rand.New(rand.NewSource(e.seed*1009 + int64(k)))
	jobs := planJobs(rng, int(rate*d.Seconds()))
	outs := e.drive(v, jobs, rate)
	if keep != nil {
		if err := keep(v, outs); err != nil {
			return phase{}, nil, nil, err
		}
	}
	return summarize(outs), jobs, outs, nil
}

// openLoop offers valid windows 0, 1, … of d each at serveRate until
// total has been measured, and returns their jobs and outcomes merged.
// Every job of every window is checked; a window whose generator p99
// lateness passes lateBound is invalid and offered again, and a
// measurement with more than maxInvalid invalid windows fails its
// lateness check.
func (e *env) openLoop(d, total time.Duration, traced bool,
	keep func(*served, []outcome) error) (phase, []plannedJob, []outcome, error) {
	var all phase
	var jobs []plannedJob
	var outs []outcome
	invalid := 0
	for k := 0; time.Duration(k)*d < total; {
		p, js, wouts, err := e.window(k, serveRate, d, traced, keep)
		if err != nil {
			return all, nil, nil, err
		}
		for i, o := range wouts {
			e.check(o.ok, "job %d (%s) ended %q: %s", i, js[i].body, o.status.State, o.status.Error)
		}
		late := quantile(p.lateness, 0.99)
		fmt.Fprintf(os.Stderr, "perfbench: window %d lateness ms p50 %.3f p99 %.3f max %.3f; latency ms p50 %.3f p99 %.3f\n",
			k, median(p.lateness)*1e3, late*1e3, quantile(p.lateness, 1)*1e3, median(p.latency)*1e3, quantile(p.latency, 0.99)*1e3)
		if late > lateBound.Seconds() {
			invalid++
			e.invalid++
			fmt.Fprintf(os.Stderr, "perfbench: window %d invalid: generator p99 lateness %.2fms over the %v bound\n",
				k, late*1e3, lateBound)
			if invalid > maxInvalid {
				e.check(false, "%d windows invalid: the generator did not offer the load on schedule", invalid)
				return all, nil, nil, errors.New("serve: no valid measurement")
			}
			continue
		}
		all.latency = append(all.latency, p.latency...)
		all.lateness = append(all.lateness, p.lateness...)
		all.senderWait = append(all.senderWait, p.senderWait...)
		all.submit = append(all.submit, p.submit...)
		all.failed += p.failed
		jobs, outs = append(jobs, js...), append(outs, wouts...)
		k++
	}
	if len(all.latency) == 0 {
		return all, nil, nil, errors.New("serve: no job completed")
	}
	return all, jobs, outs, nil
}

// journalDir returns a fresh journal directory under the run's scratch
// directory.
func (e *env) journalDir() string {
	e.journals++
	return filepath.Join(e.work, fmt.Sprintf("journal-%d", e.journals))
}

// checkSample checks a seeded sample of results against
// harness.Config.RunJob on the same spec.
func (e *env) checkSample(rng *rand.Rand, jobs []plannedJob, outs []outcome) {
	for k := 0; k < sampleJobs && len(outs) > 0; k++ {
		i := rng.Intn(len(outs))
		if !outs[i].ok {
			continue
		}
		e.check(sameResult(jobs[i].req, outs[i].status.Result), "job %d (%s): served result %+v differs from RunJob",
			i, jobs[i].body, outs[i].status.Result)
	}
}

// sameResult reruns the request's simulation with harness RunJob at the
// server's base geometry plus the request's overrides.
func sameResult(req server.Request, got *server.Result) bool {
	if got == nil {
		return false
	}
	c := harness.Quick()
	spec := harness.JobSpec{Kind: harness.JobKind(req.Kind), Steps: req.Steps}
	switch {
	case req.MatmulN > 0:
		c.MatmulN = req.MatmulN
	case req.SORN > 0:
		c.SORN = req.SORN
	case req.PDEN > 0:
		c.PDEN = req.PDEN
	case req.NBodyN > 0:
		c.NBodyN, c.NBodySteps = req.NBodyN, req.Steps
	}
	r, err := c.RunJob(context.Background(), spec)
	return err == nil && r.Instructions == got.Instructions && r.Summary.IFetches == got.IFetches &&
		r.Summary.DataRefs == got.DataRefs && r.Summary.L1Misses == got.L1Misses &&
		r.Summary.L2.Misses == got.L2Misses
}

// fillJournal runs jobs to completion on a server journaling to dir and
// stops it, which leaves a journal of finished jobs; it returns each
// job's final status by ID.
func (e *env) fillJournal(dir string, jobs []plannedJob) (map[string]server.Status, error) {
	v, err := e.boot(dir, false)
	if err != nil {
		return nil, err
	}
	defer v.stop()
	done := map[string]server.Status{}
	const batch = 128 // within the server's queue depth
	for lo := 0; lo < len(jobs); lo += batch {
		var ids []string
		for _, j := range jobs[lo:min(lo+batch, len(jobs))] {
			st, err := v.srv.Submit(j.req)
			if err != nil {
				return nil, fmt.Errorf("journal fill: %s: %w", j.body, err)
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			st, ok := v.srv.Wait(id, time.Minute)
			if !ok || st.State != server.StateDone {
				return nil, fmt.Errorf("journal fill: job %s ended %q: %s", id, st.State, st.Error)
			}
			done[id] = st
		}
	}
	return done, nil
}

func runServe(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	// Set-up boots a server and recovers a journal of finished jobs into
	// it. Recovering finished jobs writes nothing, so every set-up
	// recovers the same directory.
	recovered := e.journalDir()
	done, err := e.fillJournal(recovered, planJobs(rng, recoverJobs))
	if err != nil {
		return err
	}
	v, release, err := setupMedian(e, func() (*served, func(), error) {
		v, err := e.boot(recovered, false)
		if err != nil {
			return nil, nil, err
		}
		return v, v.stop, nil
	})
	if err != nil {
		return err
	}
	for id, want := range done {
		got, ok := v.srv.Get(id)
		e.check(ok && got.State == server.StateDone && reflect.DeepEqual(got.Result, want.Result),
			"recovered job %s: %q %+v, before the restart %+v", id, got.State, got.Result, want.Result)
	}
	release()
	if e.trace {
		return traceServe(e, rng)
	}
	p, jobs, outs, err := e.openLoop(serveWindow, e.seconds, false, nil)
	if err != nil {
		return err
	}
	e.peak = e.peakRSSMB()
	e.checkSample(rng, jobs, outs)
	e.set("op_ms", median(p.latency)*1e3, "ms")
	return nil
}

// metricsSnap is the part of /metrics the traced run reads.
type metricsSnap struct {
	Counters []struct {
		Name  string `json:"name"`
		Total uint64 `json:"total"`
	} `json:"counters"`
	Histograms []struct {
		Name  string  `json:"name"`
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean"`
	} `json:"histograms"`
}

func readMetrics(url string) (metricsSnap, error) {
	var m metricsSnap
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (m metricsSnap) counter(name string) float64 {
	for _, c := range m.Counters {
		if c.Name == name {
			return float64(c.Total)
		}
	}
	return 0
}

func (m metricsSnap) mean(name string) float64 {
	for _, h := range m.Histograms {
		if h.Name == name {
			return h.Mean
		}
	}
	return 0
}

// traceServe runs one valid untraced and one valid traced window of half
// the measuring time each, with the same jobs, at the fixed rate, then
// the max-rate ladder. The traced window wraps Handler() to time it and
// reads the server's own histograms from /metrics; its layer times are
// means per job, which add up to the mean submit-to-done latency.
func traceServe(e *env, rng *rand.Rand) error {
	half := e.seconds / 2
	plain, jobs, outs, err := e.openLoop(half, half, false, nil)
	if err != nil {
		return err
	}
	e.checkSample(rng, jobs, outs)

	var m metricsSnap
	var transit, handler []float64 // send to handler entry, time in the handler
	// The traced window offers the plain window's jobs again. keep runs
	// for every window offered; the last one is the valid one.
	traced, jobs, outs, err := e.openLoop(half, half, true, func(v *served, outs []outcome) error {
		var err error
		m, err = readMetrics(v.url)
		v.mu.Lock()
		defer v.mu.Unlock()
		transit, handler = nil, nil
		for i, o := range outs {
			if sp, ok := v.posts[i]; ok && o.ok {
				transit = append(transit, sp.start.Sub(o.sent).Seconds())
				handler = append(handler, sp.end.Sub(sp.start).Seconds())
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	e.checkSample(rng, jobs, outs)

	done := float64(len(traced.latency))
	queue, run := m.mean("server.queue_wait_ns")/1e6, m.mean("server.job_wall_ns")/1e6
	e.set("http.submit_ms", median(traced.submit)*1e3, "ms")
	e.set("server.handler_ms", median(handler)*1e3, "ms")
	e.set("server.queue_ms", queue, "ms")
	e.set("server.run_ms", run, "ms")
	e.set("journal.fsync_us", m.mean("server.journal.fsync_ns")/1e3, "us")
	e.set("journal.appends_per_job", m.counter("server.journal.appends")/done, "ratio")
	// A job's critical path: lateness, the wait for a sender, the request
	// reaching the handler, the handler (the accept is journaled there),
	// then queue and run. The rest of the POST round trip, the response's
	// way back, overlaps queue and run.
	e.setOther("serve.other_ms", "ms", mean(traced.latency),
		mean(traced.lateness)+mean(traced.senderWait)+mean(transit)+mean(handler)+(queue+run)/1e3)
	e.set("obs.overhead_frac", median(traced.latency)/median(plain.latency)-1, "ratio")

	e.set("serve.p99_ms", quantile(plain.latency, 0.99)*1e3, "ms")
	e.set("serve.lateness_ms", quantile(plain.lateness, 0.99)*1e3, "ms")
	e.set("serve.failed_frac", float64(plain.failed)/float64(plain.failed+len(plain.latency)), "ratio")

	e.set("serve.invalid_windows", float64(e.invalid), "count")

	best := 0.0
	for i, rate := range serveLadder {
		// Ladder windows draw their jobs past the fixed-rate windows'.
		p, _, _, err := e.window(100+i, rate, ladderStep, false, nil)
		if err != nil {
			return err
		}
		if p.failed > 0 || quantile(p.latency, 0.99) > p99Limit.Seconds() || p.drainAfter > p99Limit {
			break
		}
		best = rate
	}
	e.set("serve.max_rate", best, "1/s")
	return nil
}
