package asmsim_test

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"asmsim"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
)

// countingRecorder counts the quantum records it receives.
type countingRecorder struct{ n atomic.Int64 }

func (r *countingRecorder) Record(*asmsim.QuantumRecord) { r.n.Add(1) }
func (r *countingRecorder) Close() error                 { return nil }

type sinkSubset struct{ metrics, trace, dash, slo bool }

// TestSinksDoNotPerturbResults is the observers' inertness gate: a run
// with any subset of RunOptions.Telemetry's sinks attached — metrics
// registry and recorder, event tracer, or all of them at once together
// with the dashboard and SLO engine — produces results
// reflect.DeepEqual to a bare run. The dashboard and the SLO engine
// alone have their own gates below. The simulation is deterministic, so
// any divergence means an observer leaked into the simulated machine.
func TestSinksDoNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run integration test")
	}
	for _, tc := range []struct {
		name string
		on   sinkSubset
	}{
		{"metrics+recorder", sinkSubset{metrics: true}},
		{"trace", sinkSubset{trace: true}},
		{"all", sinkSubset{metrics: true, trace: true, dash: true, slo: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSinksInert(t, tc.on) })
	}
}

// TestDashboardDoesNotPerturbResults requires a run streamed live to an
// SSE client of the dashboard to equal a bare run, and the client to see
// every quantum frame and a live attribution snapshot.
func TestDashboardDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run integration test")
	}
	checkSinksInert(t, sinkSubset{dash: true})
}

// TestSLOEvaluationDoesNotPerturbResults requires a run evaluated by an
// SLO engine whose tight bound fires mid-run, with every alert sink
// live, to equal a bare run.
func TestSLOEvaluationDoesNotPerturbResults(t *testing.T) {
	checkSinksInert(t, sinkSubset{slo: true})
}

// The mix every inertness check runs, and its bare result, computed
// once for all of them.
var (
	inertNames = []string{"mcf", "libquantum", "bzip2", "h264ref"}
	inertOpt   = asmsim.RunOptions{WarmupQuanta: 1, Quanta: 3, GroundTruth: true}
	bareOnce   sync.Once
	bareRes    *asmsim.RunResult
	bareErr    error
)

// checkSinksInert runs the shared mix with the sinks of on attached,
// requires the result to be reflect.DeepEqual to the bare run, and then
// checks that each attached sink really observed the run, so the
// equality never holds over an idle observer.
func checkSinksInert(t *testing.T, on sinkSubset) {
	t.Helper()
	cfg, names, opt := sloTestConfig(), inertNames, inertOpt
	bareOnce.Do(func() { bareRes, bareErr = asmsim.Run(cfg, names, opt) })
	if bareErr != nil {
		t.Fatal(bareErr)
	}
	bare := bareRes
	quanta := opt.WarmupQuanta + opt.Quanta
	records := quanta * len(names)

	o := opt
	var checks []func()
	if on.metrics {
		rec := &countingRecorder{}
		o.Telemetry.Metrics = asmsim.NewTelemetryRegistry()
		o.Telemetry.Recorder = rec
		checks = append(checks, func() {
			if got := int(rec.n.Load()); got != records {
				t.Errorf("recorder saw %d records, want %d", got, records)
			}
		})
	}
	if on.trace {
		var buf bytes.Buffer
		tracer := asmsim.NewTracer(&buf, asmsim.TracerConfig{})
		o.Telemetry.Trace = tracer
		checks = append(checks, func() {
			if err := tracer.Close(); err != nil {
				t.Error(err)
			}
			if got := len(tracer.Quanta()); got != quanta {
				t.Errorf("tracer saw %d quanta, want %d", got, quanta)
			}
		})
	}
	if on.dash {
		checks = append(checks, attachDash(t, &o, records))
	}
	if on.slo {
		checks = append(checks, attachSLO(t, &o))
	}

	got, err := asmsim.Run(cfg, names, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, got) {
		t.Fatalf("sinks perturbed the run:\nbare:  %+v\nsinks: %+v", bare, got)
	}
	for _, check := range checks {
		check()
	}
}

// attachDash wires a dashboard (with a registry behind its /metrics)
// into o and connects an SSE client that consumes the quantum stream
// for the whole run. The returned check ends the stream and requires
// one frame per (app, quantum) plus a live attribution snapshot, which
// the dashboard must obtain even when the run writes no trace.
func attachDash(t *testing.T, o *asmsim.RunOptions, records int) func() {
	t.Helper()
	srv := asmsim.NewDashServer()
	t.Cleanup(func() { srv.Close() })
	mux := http.NewServeMux()
	srv.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/debug/asm/quanta")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var wg sync.WaitGroup
	frames := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: quantum") {
				frames++
			}
		}
	}()
	o.Telemetry.Dash = srv
	if o.Telemetry.Metrics == nil {
		o.Telemetry.Metrics = asmsim.NewTelemetryRegistry()
	}
	return func() {
		srv.Close() // ends the SSE stream so the reader goroutine exits
		wg.Wait()
		if frames != records {
			t.Errorf("SSE client saw %d quantum frames, want %d", frames, records)
		}
		ar, err := http.Get(ts.URL + "/debug/asm/attribution")
		if err != nil {
			t.Fatal(err)
		}
		defer ar.Body.Close()
		body, _ := io.ReadAll(ar.Body)
		if !strings.Contains(string(body), `"present": true`) {
			t.Errorf("attribution endpoint empty after dashboard run: %s", body)
		}
	}
}

// attachSLO wires an SLO engine with every alert sink live — metrics,
// structured log, flight recorder dumping to disk, trace instants and a
// transition hook — and a QoS bound tight enough to fire mid-run, so
// the equality covers the active alerting path. The returned check
// requires transitions, both objectives' statuses and a firing
// qos-tight.
func attachSLO(t *testing.T, o *asmsim.RunOptions) func() {
	t.Helper()
	spec := mustSpec(t, `{"slos":[
		{"name":"qos-tight","signal":"qos","bound":1.2,
		 "windows":[{"long":6,"short":2,"burn":2}],
		 "pending_ticks":1,"resolve_ticks":2},
		{"name":"asm-acc","signal":"accuracy"}
	]}`)
	flight := telemetry.NewFlightRecorder(64)
	flight.SetDumpDir(t.TempDir())
	var trace bytes.Buffer
	tracer := asmsim.NewTracer(&trace, asmsim.TracerConfig{})
	var transitions atomic.Int64
	eng := asmsim.NewSLOEngine(spec, asmsim.SLOSinks{
		Metrics:      asmsim.NewTelemetryRegistry(),
		Log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		Flight:       flight,
		Trace:        tracer,
		OnTransition: func(asmsim.SLOAlertEvent) { transitions.Add(1) },
	})
	o.Telemetry.SLO = eng
	return func() {
		if err := tracer.Close(); err != nil {
			t.Error(err)
		}
		if transitions.Load() == 0 {
			t.Error("tight bound produced no alert transitions; the non-perturbation check ran idle")
		}
		alerts := eng.Alerts()
		if len(alerts) != 2 {
			t.Fatalf("Alerts() returned %d statuses, want 2", len(alerts))
		}
		fired := false
		for _, tr := range alerts[0].Transitions {
			if tr.To == slo.Firing {
				fired = true
			}
		}
		if !fired {
			t.Errorf("qos-tight never fired; transitions: %+v", alerts[0].Transitions)
		}
	}
}
