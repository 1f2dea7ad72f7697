package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"asmsim/internal/dash"
	"asmsim/internal/exp"
	"asmsim/internal/rng"
	"asmsim/internal/serve"
	"asmsim/internal/telemetry"
)

// The job stream. Misses cost the one worker about 20 ms each, so one
// miss in every serveMissEvery arrivals at serveRate keeps it about a
// third busy: at about half busy, with misses twice as long, the
// stream's tail latency spread too widely across seeds to bound. Hits
// are cheap, and one stream holds over a thousand of them, enough for
// ten beyond their p99, next to over two hundred misses for their p90.
// The share of misses is fixed rather than drawn, so the stream's
// percentiles do not move with the seed's luck.
const (
	serveCatalogue  = 12
	serveStream     = 18 * time.Second
	serveRate       = 72.0 // arrivals per second, duplicates aside
	serveMissEvery  = 5    // one miss per this many arrivals
	serveDupEvery   = 5    // one miss in this many gets a concurrent duplicate
	serveDupDelay   = 10 * time.Millisecond
	serveQueueDepth = 64
	serveDrainLimit = 60 * time.Second
	servePoll       = time.Second
	// serveDirect is how many miss results are compared bit for bit
	// against a direct JobSpec.Run, next to one catalogue result.
	serveDirect = 3
	// A run is invalid when the generator sent its p99 request later
	// than this after the request was due, or when the backlog of
	// outstanding jobs over the stream's last third exceeds the first
	// third's by more than serveBacklogGrowth.
	serveMaxLag        = 100 * time.Millisecond
	serveBacklogGrowth = 4.0
)

// Request kinds in the schedule.
const (
	kindHit = iota
	kindMiss
	kindDup
)

// arrival is one scheduled request: when it is due after the stream
// starts, its kind, and the seed of the fig2 job spec it submits.
type arrival struct {
	at   time.Duration
	kind int
	spec uint64
}

// jobSpec is the small fig2 job every request submits: one random mix,
// one measured quantum of 100k cycles.
func jobSpec(seed uint64) exp.JobSpec {
	return exp.JobSpec{Experiment: "fig2", Workloads: 1, MeasuredQuanta: 1, Quantum: 100_000, Seed: seed}
}

// makeSchedule builds the seeded open-loop stream: Poisson arrivals at
// rate per second over dur. Each run of missEvery arrivals holds one miss,
// on a spec never submitted before, at a random place; the others are
// hits on random catalogue specs. Every dupEvery-th miss is followed
// serveDupDelay later by a duplicate of the same spec. It returns the
// catalogue's spec seeds and the arrivals in due order.
func makeSchedule(seed uint64, catalogue int, dur time.Duration, rate float64, missEvery, dupEvery int) ([]uint64, []arrival) {
	r := rng.NewNamed(seed, "perfbench/serve")
	used := map[uint64]bool{}
	fresh := func() uint64 {
		for {
			s := 1 + r.Uint64n(1<<40)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	cat := make([]uint64, catalogue)
	for i := range cat {
		cat[i] = fresh()
	}
	var arr []arrival
	t, misses, missAt := 0.0, 0, 0
	for n := 0; ; n++ {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		if n%missEvery == 0 {
			missAt = n + r.Intn(missEvery)
		}
		if n != missAt {
			arr = append(arr, arrival{at: at, kind: kindHit, spec: cat[r.Intn(len(cat))]})
			continue
		}
		s := fresh()
		arr = append(arr, arrival{at: at, kind: kindMiss, spec: s})
		if misses++; misses%dupEvery == 0 {
			arr = append(arr, arrival{at: at + serveDupDelay, kind: kindDup, spec: s})
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
	return cat, arr
}

// serveJobs runs an in-process asmserve, wired as cmd/asmserve wires it
// (metrics registry, dashboard, the service's flight recorder, journal
// and result store in a local state directory), served over loopback
// HTTP with one job worker. A client drives it with one connection for
// submissions and results and one SSE connection for completions.
type serveJobs struct {
	dir       string
	reg       *telemetry.Registry
	dash      *dash.Server
	srv       *serve.Server
	prof      *telemetry.Profiler
	base      string
	api       *http.Client
	events    *eventStream
	catalogue []uint64
	schedule  []arrival
	tables    map[uint64][]byte // spec seed -> result table as served
}

func newServeJobs() bench { return &serveJobs{} }

func (w *serveJobs) nominalOps() int {
	perSecond := serveRate * (1 + 1/float64(serveMissEvery*serveDupEvery))
	return int(serveStream.Seconds() * perSecond)
}

func (w *serveJobs) setup(seed uint64, tmp string) (err error) {
	w.catalogue, w.schedule = makeSchedule(seed, serveCatalogue, serveStream, serveRate, serveMissEvery, serveDupEvery)
	if w.dir, err = os.MkdirTemp(tmp, "serve-"); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.teardown()
		}
	}()
	w.reg = telemetry.NewRegistry()
	w.dash = dash.NewServer()
	w.dash.SetRegistry(w.reg)
	w.srv, err = serve.New(serve.Options{
		Workers:    1,
		QueueDepth: serveQueueDepth,
		StateDir:   w.dir,
		Metrics:    w.reg,
		Dash:       w.dash,
	})
	if err != nil {
		return err
	}
	w.prof, err = telemetry.StartProfiler("", "", "127.0.0.1:0", w.dash.Mount, w.srv.Mount)
	if err != nil {
		return err
	}
	w.base = "http://" + w.prof.PprofAddr()
	w.api = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if w.events, err = openEvents(w.base + "/api/events"); err != nil {
		return err
	}
	// Precompute the hit catalogue through the service itself.
	w.tables = map[uint64][]byte{}
	ids := map[string]uint64{}
	for _, s := range w.catalogue {
		st, _, err := w.submit(s)
		if err != nil {
			return err
		}
		ids[st.ID] = s
	}
	deadline := time.Now().Add(serveDrainLimit)
	for id, s := range ids {
		st, err := w.events.wait(id, deadline, w.status)
		if err != nil {
			return err
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("catalogue job %s ended %s: %s", id, st.State, st.Error)
		}
		if w.tables[s], err = w.result(id); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveJobs) teardown() {
	if w.events != nil {
		w.events.close()
		w.events = nil
	}
	if w.srv != nil {
		if err := w.srv.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
		}
		w.srv = nil
	}
	if w.dash != nil {
		w.dash.Close()
		w.dash = nil
	}
	if w.prof != nil {
		if err := w.prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve listener:", err)
		}
		w.prof = nil
	}
	if w.api != nil {
		w.api.CloseIdleConnections()
		w.api = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// submit POSTs one job spec and returns the service's verdict and the
// HTTP status.
func (w *serveJobs) submit(seed uint64) (serve.JobStatus, int, error) {
	body, err := json.Marshal(jobSpec(seed))
	if err != nil {
		return serve.JobStatus{}, 0, err
	}
	resp, err := w.api.Post(w.base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, 0, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.JobStatus{}, resp.StatusCode, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return serve.JobStatus{}, resp.StatusCode, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return serve.JobStatus{}, resp.StatusCode, fmt.Errorf("submit: %w", err)
	}
	return st, resp.StatusCode, nil
}

// status GETs a job's status.
func (w *serveJobs) status(id string) (serve.JobStatus, error) {
	resp, err := w.api.Get(w.base + "/api/jobs/" + id)
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("status %s: %w", id, err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.JobStatus{}, fmt.Errorf("status %s: %w", id, err)
	}
	return st, nil
}

// result GETs a finished job's table as served.
func (w *serveJobs) result(id string) ([]byte, error) {
	resp, err := w.api.Get(w.base + "/api/jobs/" + id + "/result")
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", id, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: %s", id, resp.Status)
	}
	return b, nil
}

// request is one request of the stream in flight.
type request struct {
	a      arrival
	due    time.Time
	kind   int    // the service's verdict: kindHit, kindMiss or kindDup
	trace  string // shared by the request's spans
	submit uint64 // the submission's span, parent of the result fetch
}

func (w *serveJobs) run(ctx context.Context, tr *tracer) (*unit, error) {
	u := &unit{valid: true, layer: map[string]float64{}}
	hist0 := w.reg.SnapshotHistograms()
	val0 := regValues(w.reg)
	w.events.resetCounters()

	var (
		lat      = map[int][]float64{} // by verdict, seconds
		lags     []float64
		submits  []float64
		backlog  []float64 // outstanding jobs at each send
		pending  = map[string][]*request{}
		waiting  int
		served   = map[uint64][]byte{}
		missSeen []uint64
		polled   int
		lastPoll = time.Now()
	)
	finish := func(r *request, id string) {
		sp := tr.start(r.trace, "serve.result", r.submit)
		b, err := w.result(id)
		sp.end()
		if err != nil {
			u.problem("%v", err)
			return
		}
		lat[r.kind] = append(lat[r.kind], time.Since(r.due).Seconds())
		if prev, ok := served[r.a.spec]; ok && !bytes.Equal(prev, b) {
			u.problem("spec %d served two different tables", r.a.spec)
		}
		if cat, ok := w.tables[r.a.spec]; ok && !bytes.Equal(cat, b) {
			u.problem("spec %d: hit differs from the catalogue's table", r.a.spec)
		}
		served[r.a.spec] = b
	}

	win, err := openWindow(tr != nil)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(serveStream)
	i := 0
	for i < len(w.schedule) || waiting > 0 {
		if err := ctx.Err(); err != nil {
			u.problem("stream cut short: %v", err)
			break
		}
		if time.Since(end) > serveDrainLimit {
			u.problem("%d requests still waiting %v after the stream ended", waiting, serveDrainLimit)
			break
		}
		// Completions normally arrive on the SSE stream; one that its
		// bounded buffer dropped is recovered by polling the status of
		// jobs that have waited long.
		if time.Since(lastPoll) > servePoll {
			lastPoll = time.Now()
			for id, reqs := range pending {
				if time.Since(reqs[0].due) < servePoll {
					continue
				}
				if st, err := w.status(id); err == nil && st.State.Terminal() && w.events.complete(st) {
					polled++
				}
			}
		}
		for id, st := range w.events.take(pending) {
			for _, r := range pending[id] {
				if st.State != serve.StateDone {
					u.problem("job %s ended %s: %s", id, st.State, st.Error)
					continue
				}
				finish(r, id)
			}
			waiting -= len(pending[id])
			delete(pending, id)
		}
		if i < len(w.schedule) {
			a := w.schedule[i]
			due := start.Add(a.at)
			if wait := time.Until(due); wait > 0 {
				w.events.sleep(wait)
				continue
			}
			i++
			u.attempted++
			lags = append(lags, time.Since(due).Seconds())
			backlog = append(backlog, float64(waiting))
			r := &request{a: a, due: due, trace: fmt.Sprintf("req-%d", i)}
			sp := tr.start(r.trace, "serve.submit", 0)
			r.submit = sp.id()
			t0 := time.Now()
			st, code, err := w.submit(a.spec)
			submits = append(submits, time.Since(t0).Seconds())
			sp.end()
			if err != nil {
				u.problem("request %d: %v", i, err)
				continue
			}
			switch {
			case st.Cached:
				r.kind = kindHit
				finish(r, st.ID)
			case st.Dedup:
				r.kind = kindDup
				pending[st.ID] = append(pending[st.ID], r)
				waiting++
			case code == http.StatusAccepted:
				r.kind = kindMiss
				missSeen = append(missSeen, a.spec)
				pending[st.ID] = append(pending[st.ID], r)
				waiting++
			default:
				u.problem("request %d: unexpected verdict %+v", i, st)
			}
			continue
		}
		w.events.sleep(servePoll)
	}
	win.close()
	u.win = win
	if polled > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d completions polled after the event stream missed them (%v SSE frames dropped)\n", polled, regValues(w.reg)["serve.sse.dropped_frames"]-val0["serve.sse.dropped_frames"])
	}

	// Open-loop validity: the generator must keep to its schedule and
	// the backlog must not grow over the stream.
	lagP99 := quantile(lags, 0.99)
	third := len(backlog) / 3
	grew := third > 0 && mean(backlog[len(backlog)-third:]) > mean(backlog[:third])+serveBacklogGrowth
	if lagP99 > serveMaxLag.Seconds() || grew {
		u.valid = false
	}
	var all []float64
	for _, k := range []int{kindHit, kindMiss, kindDup} {
		all = append(all, lat[k]...)
	}
	u.ops = all
	u.overheadBasis = median(all)

	if err := w.verify(ctx, u, served, missSeen); err != nil {
		return nil, err
	}

	hist := w.reg.SnapshotHistograms()
	val := regValues(w.reg)
	dv := map[string]float64{}
	for k, v := range val {
		dv[k] = v - val0[k]
	}
	shared, alone := registryLayers(dv, u.layer)
	u.simMcycles = (shared + alone) / 1e6
	w.events.counterLayers(u.layer, jobSpec(0).Quantum)
	ms := func(name string, q float64) float64 {
		h := subHist(hist[name], hist0[name])
		return float64(h.Quantile(q)) / 1e6
	}
	hits := lat[kindHit]
	misses := append(append([]float64(nil), lat[kindMiss]...), lat[kindDup]...)
	u.layer["serve.submit_ms_p50"] = 1000 * median(submits)
	u.layer["serve.queue_wait_ms_p50"] = ms("serve.queue_wait_ns", 0.5)
	u.layer["serve.queue_wait_ms_p90"] = ms("serve.queue_wait_ns", 0.9)
	u.layer["serve.attempt_ms_p50"] = ms("serve.attempt_ns", 0.5)
	u.layer["serve.worker_busy_pct"] = 100 * ratio(float64(subHist(hist["serve.attempt_ns"], hist0["serve.attempt_ns"]).Sum)/1e9, win.wall)
	u.layer["serve.journal_fsync_ms_p50"] = ms("serve.journal_fsync_ns", 0.5)
	u.layer["serve.journal_fsync_ms_p99"] = ms("serve.journal_fsync_ns", 0.99)
	u.layer["serve.hit_ratio"] = ratio(dv["serve.cache_hits"], dv["serve.submitted"])
	u.layer["serve.dedup_hits"] = dv["serve.dedup_hits"]
	u.layer["serve.shed"] = dv["serve.shed"]
	u.layer["serve.jobs_retained"] = float64(len(w.srv.Jobs()))
	u.layer["serve.hit_p50_ms"] = 1000 * quantile(hits, 0.5)
	u.layer["serve.hit_p99_ms"] = 1000 * quantile(hits, 0.99)
	u.layer["serve.miss_p50_ms"] = 1000 * quantile(misses, 0.5)
	u.layer["serve.miss_p90_ms"] = 1000 * quantile(misses, 0.9)
	u.layer["serve.hit_count"] = float64(len(hits))
	u.layer["serve.miss_count"] = float64(len(misses))
	u.layer["loadgen.lag_ms_p99"] = 1000 * lagP99
	if len(backlog) > 0 {
		u.layer["loadgen.backlog_end"] = backlog[len(backlog)-1]
	}
	return u, nil
}

// verify checks the served tables: a few miss results and one
// catalogue result must equal a direct JobSpec.Run bit for bit. It also
// sets the unit's ASM error (the mean of the served tables' ASM
// averages) and its digest (the served tables).
func (w *serveJobs) verify(ctx context.Context, u *unit, served map[uint64][]byte, misses []uint64) error {
	direct := append([]uint64{w.catalogue[0]}, misses[:min(serveDirect, len(misses))]...)
	for _, s := range direct {
		b, ok := served[s]
		if !ok {
			b, ok = w.tables[s]
		}
		if !ok {
			continue // a failed job, already counted
		}
		want, err := jobSpec(s).Run(ctx)
		if err != nil {
			return fmt.Errorf("direct run of spec %d: %w", s, err)
		}
		var got exp.Table
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("served table of spec %d: %w", s, err)
		}
		if !reflect.DeepEqual(&got, want) {
			u.problem("spec %d: served table differs from a direct JobSpec.Run", s)
		}
	}
	var d digester
	var errs []float64
	specs := make([]uint64, 0, len(served))
	for s := range served {
		specs = append(specs, s)
	}
	// Sum in spec order so the mean is bit-identical from run to run.
	sort.Slice(specs, func(i, j int) bool { return specs[i] < specs[j] })
	for _, s := range specs {
		b := served[s]
		var t exp.Table
		if err := json.Unmarshal(b, &t); err != nil {
			return fmt.Errorf("served table of spec %d: %w", s, err)
		}
		v, err := tableASM(&t)
		if err != nil {
			u.problem("spec %d: %v", s, err)
			continue
		}
		errs = append(errs, v)
		d.add("%d|%s", s, bytes.TrimSpace(b))
	}
	u.asmErr = mean(errs)
	u.digest = d.sum()
	return nil
}

// subHist returns the histogram of observations made between before and
// after.
func subHist(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	out := after
	out.Count -= before.Count
	out.Sum -= before.Sum
	for i := range out.Buckets {
		out.Buckets[i] -= before.Buckets[i]
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// eventStream reads the service's SSE stream on its own connection,
// keeping terminal job statuses for the client and summing the per-app
// counters of the quantum records it streams.
type eventStream struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when the reader exits

	mu     sync.Mutex
	jobs   map[string]serve.JobStatus // terminal statuses by job ID
	notify chan struct{}              // signalled on each terminal status
	rec    recorder
}

func openEvents(url string) (*eventStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	e := &eventStream{cancel: cancel, done: make(chan struct{}), jobs: map[string]serve.JobStatus{}, notify: make(chan struct{}, 1)}
	e.rec.warmup = jobSpec(0).Scale().WarmupQuanta
	go func() {
		defer close(e.done)
		defer resp.Body.Close()
		e.read(resp.Body)
	}()
	return e, nil
}

// read parses SSE frames until the stream ends.
func (e *eventStream) read(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "job":
				var st serve.JobStatus
				if json.Unmarshal(data, &st) == nil && st.State.Terminal() {
					e.mu.Lock()
					e.jobs[st.ID] = st
					e.mu.Unlock()
					select {
					case e.notify <- struct{}{}:
					default:
					}
				}
			case "quantum":
				var rec telemetry.QuantumRecord
				if json.Unmarshal(data, &rec) == nil {
					e.rec.Record(&rec)
				}
			}
		}
	}
}

// take returns the terminal statuses of the pending jobs that have
// finished.
func (e *eventStream) take(pending map[string][]*request) map[string]serve.JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string]serve.JobStatus{}
	for id := range pending {
		if st, ok := e.jobs[id]; ok {
			out[id] = st
		}
	}
	return out
}

// wait blocks until job id reaches a terminal state or the deadline,
// polling the job's status when the stream stays quiet.
func (e *eventStream) wait(id string, deadline time.Time, poll func(string) (serve.JobStatus, error)) (serve.JobStatus, error) {
	for {
		e.mu.Lock()
		st, ok := e.jobs[id]
		e.mu.Unlock()
		if ok {
			return st, nil
		}
		if time.Now().After(deadline) {
			return serve.JobStatus{}, fmt.Errorf("job %s: not finished by the deadline", id)
		}
		if !e.sleep(servePoll) {
			if st, err := poll(id); err == nil && st.State.Terminal() {
				e.complete(st)
			}
		}
	}
}

// sleep waits for d or the next terminal status, whichever is first,
// and reports whether a status (or the stream's end) cut it short.
func (e *eventStream) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-e.notify:
	case <-e.done:
	}
	return true
}

// complete records a terminal status learned outside the stream and
// reports whether the stream had missed it.
func (e *eventStream) complete(st serve.JobStatus) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, seen := e.jobs[st.ID]
	e.jobs[st.ID] = st
	return !seen
}

// resetCounters starts a fresh count of streamed quantum records.
func (e *eventStream) resetCounters() {
	e.rec.mu.Lock()
	e.rec.c, e.rec.records, e.rec.samples, e.rec.mixes = telemetry.AppCounters{}, 0, nil, nil
	e.rec.mu.Unlock()
}

func (e *eventStream) counterLayers(layer map[string]float64, quantum uint64) {
	e.rec.mu.Lock()
	defer e.rec.mu.Unlock()
	e.rec.counterLayers(layer, quantum)
	// fig2 jobs run an unsampled ATS: every demand access probes it.
	layer["cache.ats_probes_m"] = float64(e.rec.c.L2Accesses) / 1e6
	layer["est.asm_clamp_frac"] = clampFrac(e.rec.samples, "ASM")
	layer["est.ptca_clamp_frac"] = clampFrac(e.rec.samples, "PTCA")
}

// close stops the reader and waits for it to exit.
func (e *eventStream) close() {
	e.cancel()
	<-e.done
}
