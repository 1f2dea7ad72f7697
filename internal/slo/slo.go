// Package slo is the evaluation tier of the observability stack: it
// turns the estimate/actual streams the lower layers already record
// into judgements — is the ASM-QoS slowdown bound held, is the
// estimator inside its accuracy envelope, is the job service meeting
// its latency targets — and into alerts when they are not.
//
// The paper's contract is exactly this shape: ASM-QoS promises a *soft
// slowdown guarantee* (Section 7.3) and the model's headline claim is
// an average estimation error of ~9.9% (Section 6). An SLO spec makes
// both machine-checkable. Three signal classes are supported:
//
//   - "qos": per-app actual slowdown vs. a configured bound, evaluated
//     on the deterministic sim-cycle clock at quantum boundaries;
//   - "accuracy": per-app |estimated−actual|/actual slowdown error with
//     an EWMA/CUSUM drift detector that fires when the error escapes a
//     configurable envelope (default 10%, the paper's reported
//     accuracy);
//   - "latency": service latency quantiles (p99/p999) against targets,
//     fed from telemetry.Histogram snapshots on the wall clock.
//
// Each SLO carries an error budget and Google-SRE-style multi-window
// multi-burn-rate evaluation, driving a deterministic alert state
// machine (inactive → pending → firing → resolved). Evaluation is
// strictly read-only over cloned per-quantum snapshots, so attaching an
// Engine can never perturb a simulation — the bit-identity test at the
// repo root holds it to that.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
)

// Signal classes.
const (
	SignalQoS      = "qos"
	SignalAccuracy = "accuracy"
	SignalLatency  = "latency"
)

// WindowPair is one multi-window burn-rate rule: the alert condition
// holds when the burn rate over BOTH windows is at least Burn. The long
// window provides the sustained evidence, the short window makes the
// alert reset quickly once the violation stops (the Google SRE
// multiwindow construction). Window sizes are counted in evaluation
// ticks: quantum-boundary events for qos/accuracy SLOs, histogram polls
// for latency SLOs — never wall-clock time for in-sim signals, so
// evaluation is deterministic.
type WindowPair struct {
	Long  int     `json:"long"`
	Short int     `json:"short"`
	Burn  float64 `json:"burn"`
}

// SLO is one declarative objective. Zero-valued optional fields inherit
// signal-specific defaults (see normalize).
type SLO struct {
	// Name identifies the SLO in every alert surface (metrics label,
	// logs, trace instants, dash). Required, unique within a Spec.
	Name string `json:"name"`
	// Signal selects the class: "qos", "accuracy" or "latency".
	Signal string `json:"signal"`

	// App restricts qos/accuracy evaluation to one benchmark name;
	// empty evaluates every app's records.
	App string `json:"app,omitempty"`

	// Bound is the qos slowdown bound (required for qos, > 1).
	Bound float64 `json:"bound,omitempty"`

	// Estimator names the accuracy SLO's estimator (default "ASM").
	Estimator string `json:"estimator,omitempty"`
	// Envelope is the accuracy error envelope as a fraction (default
	// 0.10, the paper's reported ~10% average error). An observation
	// whose relative error exceeds it is a bad event for the budget.
	Envelope float64 `json:"envelope,omitempty"`
	// EWMAAlpha smooths the error series (default 0.2). The drift
	// condition holds when the smoothed error exceeds Envelope +
	// CUSUMSlack.
	EWMAAlpha float64 `json:"ewma_alpha,omitempty"`
	// CUSUMSlack is the per-observation allowance above Envelope before
	// the CUSUM accumulates (default Envelope, i.e. only error beyond
	// 2× the envelope counts as drift evidence). The slack is what lets
	// a clean estimator hovering near its envelope stay alert-free.
	CUSUMSlack float64 `json:"cusum_slack,omitempty"`
	// CUSUMThreshold is the accumulated excess that trips the drift
	// detector (default 2.0, i.e. two full units of relative error
	// beyond envelope+slack).
	CUSUMThreshold float64 `json:"cusum_threshold,omitempty"`

	// Metric is the latency SLO's histogram registry name (default
	// "serve.job_latency_ns").
	Metric string `json:"metric,omitempty"`
	// Quantile is "p99" (default) or "p999".
	Quantile string `json:"quantile,omitempty"`
	// TargetMS is the latency target in milliseconds (required for
	// latency, > 0).
	TargetMS float64 `json:"target_ms,omitempty"`

	// Objective is the target good-event fraction; 1−Objective is the
	// error budget. Defaults: qos 0.95, accuracy 0.25, latency 0.99.
	// The accuracy default is deliberately loose — individual quantum
	// errors above the envelope are expected (the paper reports an
	// *average*), so the burn-rate path stays quiet and detection is
	// the drift detector's job.
	Objective float64 `json:"objective,omitempty"`
	// Windows are the burn-rate rules (default a fast pair {24, 3, 4}
	// and a slow pair {96, 12, 2}).
	Windows []WindowPair `json:"windows,omitempty"`
	// PendingTicks is how many consecutive ticks the condition must
	// hold before a pending alert fires (default 2).
	PendingTicks int `json:"pending_ticks,omitempty"`
	// ResolveTicks is how many consecutive clear ticks a firing alert
	// needs before it resolves (default 4).
	ResolveTicks int `json:"resolve_ticks,omitempty"`
}

// Spec is the -slo document: a list of SLOs.
type Spec struct {
	SLOs []SLO `json:"slos"`
}

// Load reads and parses an SLO spec file.
func Load(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("slo: %w", err)
	}
	s, err := Parse(b)
	if err != nil {
		return Spec{}, fmt.Errorf("slo: %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes, validates and normalizes a spec document.
func Parse(b []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return Spec{}, fmt.Errorf("parse: %w", err)
	}
	if err := s.normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// defaultWindows is the built-in burn-rate rule set: a fast pair that
// pages within a few ticks of a hard violation and a slow pair that
// catches a simmering one. Sizes are ticks, not minutes — deterministic
// on the sim clock.
func defaultWindows() []WindowPair {
	return []WindowPair{
		{Long: 24, Short: 3, Burn: 4},
		{Long: 96, Short: 12, Burn: 2},
	}
}

// maxWindowTicks caps a burn-rate window. The engine keeps one outcome
// per tick of an SLO's longest window, so an unbounded "long" would let
// a spec file allocate arbitrary memory (or panic outright). 65536
// quantum ticks outlast any run: at the paper's 5M-cycle quantum that
// is 3.3e11 cycles.
const maxWindowTicks = 1 << 16

// normalize validates the spec and fills signal-specific defaults in
// place.
func (s *Spec) normalize() error {
	if len(s.SLOs) == 0 {
		return fmt.Errorf("spec declares no slos")
	}
	seen := map[string]bool{}
	for i := range s.SLOs {
		o := &s.SLOs[i]
		if o.Name == "" {
			return fmt.Errorf("slos[%d]: name is required", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slos[%d]: duplicate name %q", i, o.Name)
		}
		seen[o.Name] = true
		switch o.Signal {
		case SignalQoS:
			if o.Bound <= 1 {
				return fmt.Errorf("%s: qos bound must be > 1 (got %v)", o.Name, o.Bound)
			}
			if o.Objective == 0 {
				o.Objective = 0.95
			}
		case SignalAccuracy:
			if o.Estimator == "" {
				o.Estimator = "ASM"
			}
			if o.Envelope == 0 {
				o.Envelope = 0.10
			}
			if o.Envelope < 0 || o.Envelope >= 1 {
				return fmt.Errorf("%s: envelope must be in (0, 1) (got %v)", o.Name, o.Envelope)
			}
			if o.EWMAAlpha == 0 {
				o.EWMAAlpha = 0.2
			}
			if o.EWMAAlpha <= 0 || o.EWMAAlpha > 1 {
				return fmt.Errorf("%s: ewma_alpha must be in (0, 1] (got %v)", o.Name, o.EWMAAlpha)
			}
			if o.CUSUMSlack == 0 {
				o.CUSUMSlack = o.Envelope
			}
			if o.CUSUMThreshold == 0 {
				o.CUSUMThreshold = 2.0
			}
			if o.Objective == 0 {
				o.Objective = 0.25
			}
		case SignalLatency:
			if o.Metric == "" {
				o.Metric = "serve.job_latency_ns"
			}
			switch o.Quantile {
			case "":
				o.Quantile = "p99"
			case "p99", "p999":
			default:
				return fmt.Errorf("%s: quantile must be p99 or p999 (got %q)", o.Name, o.Quantile)
			}
			if o.TargetMS <= 0 {
				return fmt.Errorf("%s: latency target_ms must be > 0 (got %v)", o.Name, o.TargetMS)
			}
			if o.Objective == 0 {
				o.Objective = 0.99
			}
		default:
			return fmt.Errorf("%s: unknown signal %q (want qos, accuracy or latency)", o.Name, o.Signal)
		}
		if o.Objective <= 0 || o.Objective >= 1 {
			return fmt.Errorf("%s: objective must be in (0, 1) (got %v)", o.Name, o.Objective)
		}
		if len(o.Windows) == 0 {
			o.Windows = defaultWindows()
		}
		for j, w := range o.Windows {
			if w.Short <= 0 || w.Long <= 0 || w.Short > w.Long {
				return fmt.Errorf("%s: windows[%d] needs 0 < short <= long (got %d/%d)", o.Name, j, w.Short, w.Long)
			}
			if w.Long > maxWindowTicks {
				return fmt.Errorf("%s: windows[%d] long must be <= %d (got %d)", o.Name, j, maxWindowTicks, w.Long)
			}
			if w.Burn <= 0 {
				return fmt.Errorf("%s: windows[%d] burn must be > 0 (got %v)", o.Name, j, w.Burn)
			}
		}
		if o.PendingTicks == 0 {
			o.PendingTicks = 2
		}
		if o.PendingTicks < 0 {
			return fmt.Errorf("%s: pending_ticks must be >= 0", o.Name)
		}
		if o.ResolveTicks == 0 {
			o.ResolveTicks = 4
		}
		if o.ResolveTicks < 1 {
			return fmt.Errorf("%s: resolve_ticks must be >= 1", o.Name)
		}
	}
	return nil
}
