// Package obs bundles everything that may observe a simulated run —
// metrics registry, quantum recorder, sweep progress, event tracer,
// live dashboard and SLO engine — into one value, attached to a system
// in one place. Every sink is optional and nil-safe, and none of them
// feeds back into the simulated machine: results are bit-identical with
// any subset attached (TestSinksDoNotPerturbResults at the repo root).
package obs

import (
	"asmsim/internal/dash"
	"asmsim/internal/evtrace"
	"asmsim/internal/sim"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
)

// Sinks holds the optional observers of a run or sweep. The zero value
// observes nothing at zero cost.
type Sinks struct {
	// Recorder receives one QuantumRecord per (app, quantum), warmup
	// included.
	Recorder telemetry.Recorder
	// Metrics receives the simulator's and the sweep's counters, gauges,
	// timers and histograms; with Dash set it also backs the dashboard.
	Metrics *telemetry.Registry
	// Progress receives live sweep item start/finish notifications.
	Progress *telemetry.Progress
	// TraceID, when set, is stamped on every QuantumRecord the run
	// emits, correlating quantum records, structured logs, journal
	// entries and SSE frames produced on behalf of one job. It carries
	// no simulation semantics and never affects results.
	TraceID string
	// Trace records sampled request spans and exact per-quantum
	// interference attribution for every shared run (alone replicas are
	// never traced). Sweep workers share it; the caller owns it and must
	// Close it.
	Trace *evtrace.Tracer
	// Dash streams runs live: quantum records fan out to its SSE
	// clients and attribution snapshots feed it even when Trace is nil.
	Dash *dash.Server
	// SLO evaluates declarative SLOs (QoS bounds, estimator drift) over
	// the quantum records on the simulated clock at quantum boundaries.
	SLO *slo.Engine
}

// Attach wires the sinks into sys, whose quanta are quantum cycles
// long: the registry to the system (and to the dashboard), the tracer
// (or, with only a dashboard, a matrix-only sink tracer feeding it),
// the SLO engine's quantum clock, and finally the recorder chain —
// Recorder, then the dashboard's SSE fan-out, then the SLO engine. It
// returns the run's record emitter; the caller adds the run's Mix (and
// Scheme) labels.
func (s Sinks) Attach(sys *sim.System, quantum uint64) *Emitter {
	sys.SetTelemetry(s.Metrics)
	if s.Metrics != nil {
		s.Dash.SetRegistry(s.Metrics)
	}
	if tr := s.Dash.AttachTracer(s.Trace); tr != nil {
		sys.SetTracer(tr)
	}
	rec := s.Dash.WrapRecorder(s.Recorder)
	if s.SLO != nil {
		s.SLO.SetQuantumCycles(quantum)
		rec = telemetry.Fanout(rec, s.SLO)
	}
	return &Emitter{Rec: rec, TraceID: s.TraceID, Benches: sys.Names()}
}

// Emitter builds a run's QuantumRecords and sends them down the run's
// recorder chain.
type Emitter struct {
	// Rec is the recorder chain; nil emits nothing.
	Rec telemetry.Recorder
	// TraceID, Mix and Scheme label every record (Scheme only in policy
	// runs).
	TraceID, Mix, Scheme string
	// Benches names the benchmark on each core.
	Benches []string
}

// Emit records one quantum: one QuantumRecord per app with its counter
// snapshot, its actual slowdown (when actual is non-nil) and every
// estimator's estimate (when estimates is non-nil; estimator name to
// per-app values).
func (e *Emitter) Emit(st *sim.QuantumStats, actual []float64, estimates map[string][]float64) {
	if e.Rec == nil {
		return
	}
	for a, bench := range e.Benches {
		qr := &telemetry.QuantumRecord{
			TraceID:  e.TraceID,
			Mix:      e.Mix,
			Scheme:   e.Scheme,
			App:      a,
			Bench:    bench,
			Quantum:  st.Quantum,
			Counters: st.Apps[a].TelemetryCounters(),
		}
		if actual != nil {
			qr.Actual = actual[a]
		}
		if estimates != nil {
			qr.Estimates = make(map[string]float64, len(estimates))
			for name, v := range estimates {
				qr.Estimates[name] = v[a]
			}
		}
		e.Rec.Record(qr)
	}
}
