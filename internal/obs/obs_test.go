package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
)

// keep collects the records a run emits.
type keep struct{ recs []telemetry.QuantumRecord }

func (k *keep) Record(r *telemetry.QuantumRecord) { k.recs = append(k.recs, *r) }
func (k *keep) Close() error                      { return nil }

// TestEmitRecordsEveryApp checks the one record builder: one record per
// app, stamped with the run's labels, Actual only with ground truth and
// Estimates only with estimators.
func TestEmitRecordsEveryApp(t *testing.T) {
	st := &sim.QuantumStats{Quantum: 3, Apps: make([]sim.AppQuantum, 2)}
	k := &keep{}
	e := &Emitter{Rec: k, TraceID: "t1", Mix: "a+b", Scheme: "s", Benches: []string{"a", "b"}}
	e.Emit(st, []float64{1.5, 2.5}, map[string][]float64{"ASM": {1.25, 2.25}})
	e.Emit(st, nil, nil)
	want := []telemetry.QuantumRecord{
		{TraceID: "t1", Mix: "a+b", Scheme: "s", App: 0, Bench: "a", Quantum: 3, Actual: 1.5, Estimates: map[string]float64{"ASM": 1.25}},
		{TraceID: "t1", Mix: "a+b", Scheme: "s", App: 1, Bench: "b", Quantum: 3, Actual: 2.5, Estimates: map[string]float64{"ASM": 2.25}},
		{TraceID: "t1", Mix: "a+b", Scheme: "s", App: 0, Bench: "a", Quantum: 3},
		{TraceID: "t1", Mix: "a+b", Scheme: "s", App: 1, Bench: "b", Quantum: 3},
	}
	if !reflect.DeepEqual(k.recs, want) {
		t.Fatalf("emitted %+v\nwant    %+v", k.recs, want)
	}
	(&Emitter{Benches: []string{"a"}}).Emit(st, nil, nil) // no recorder: no-op
}

// TestCLIWritesMetricsOnlyWithTelemetry pins the snapshot rule: a
// registry created for the dashboard or the SLO engine alone must not
// leave metrics.jsonl in the working directory; with a telemetry
// directory the snapshot lands there.
func TestCLIWritesMetricsOnlyWithTelemetry(t *testing.T) {
	// Not parallel, so changing the process's directory is safe.
	wd := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(wd); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	cli, err := StartCLI(CLIFlags{Dash: "127.0.0.1:0", SLO: true})
	if err != nil {
		t.Fatal(err)
	}
	if cli.Metrics == nil || cli.Dash == nil {
		t.Fatal("-dash and -slo must get a dashboard and a registry")
	}
	cli.WriteMetrics()
	cli.Stop()
	if ents, _ := os.ReadDir(wd); len(ents) != 0 {
		t.Fatalf("no -telemetry, yet the working directory holds %v", ents)
	}
	if cli.Failed() {
		t.Fatal("nothing failed to flush")
	}

	dir := filepath.Join(wd, "tel")
	cli, err = StartCLI(CLIFlags{Telemetry: dir})
	if err != nil {
		t.Fatal(err)
	}
	cli.Metrics.Counter("x").Inc()
	cli.WriteMetrics()
	cli.Stop()
	if fi, err := os.Stat(filepath.Join(dir, "metrics.jsonl")); err != nil || fi.Size() == 0 {
		t.Fatalf("metrics.jsonl missing or empty under -telemetry: %v", err)
	}

	// A snapshot that cannot be written fails the invocation.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	cli.WriteMetrics()
	if !cli.Failed() {
		t.Fatal("an unwritable snapshot must mark the invocation failed")
	}
}

// TestCLINoFlagsNoObservers checks that no observer flag starts nothing.
func TestCLINoFlagsNoObservers(t *testing.T) {
	cli, err := StartCLI(CLIFlags{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Stop()
	if cli.Metrics != nil || cli.Dash != nil {
		t.Fatalf("no flags: registry %v, dashboard %v", cli.Metrics, cli.Dash)
	}
}
