package slo

import (
	"testing"

	"asmsim/internal/telemetry"
)

// FuzzParse feeds arbitrary documents to the -slo spec loader. Parse
// must never panic, and every spec it accepts must build an engine that
// survives a short quantum stream without panicking.
func FuzzParse(f *testing.F) {
	for _, doc := range []string{
		`{"slos":[
			{"name":"qos-mcf","signal":"qos","app":"mcf","bound":3.0},
			{"name":"asm-acc","signal":"accuracy"},
			{"name":"lat","signal":"latency","target_ms":250}
		]}`,
		`{}`,
		`{"slos":[{"signal":"qos","bound":2}]}`,
		`{"slos":[{"name":"a","signal":"qos","bound":2},{"name":"a","signal":"qos","bound":2}]}`,
		`{"slos":[{"name":"a","signal":"qos","bound":0.5}]}`,
		`{"slos":[{"name":"a","signal":"nope"}]}`,
		`{"slos":[{"name":"a","signal":"latency"}]}`,
		`{"slos":[{"name":"a","signal":"latency","target_ms":10,"quantile":"p50"}]}`,
		`{"slos":[{"name":"a","signal":"qos","bound":2,"objective":1.5}]}`,
		`{"slos":[{"name":"a","signal":"qos","bound":2,"windows":[{"long":3,"short":9,"burn":2}]}]}`,
		`{"slos":[{"name":"a","signal":"qos","bound":2,"windows":[{"long":9,"short":3}]}]}`,
		`{"slos":[{"name":"a","signal":"accuracy","envelope":1.5}]}`,
		`{"slos":[
			{"name":"qos-tight","signal":"qos","bound":1.2,
			 "windows":[{"long":6,"short":2,"burn":2}],
			 "pending_ticks":1,"resolve_ticks":2},
			{"name":"asm-acc","signal":"accuracy"}
		]}`,
		`{"slos":[{"name":"asm-drift","signal":"accuracy"}]}`,
		`{"slos":[
			{"name":"asm-acc","signal":"accuracy"},
			{"name":"qos-sla","signal":"qos","bound":10}
		]}`,
		`{"slos":[
			{"name":"cluster-qos","signal":"qos","bound":1.05,
			 "windows":[{"long":4,"short":2,"burn":2}],
			 "pending_ticks":1,"resolve_ticks":2}
		]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		spec, err := Parse(doc)
		if err != nil {
			return
		}
		e := New(spec, Sinks{})
		e.SetQuantumCycles(1000)
		for q := 0; q < 4; q++ {
			for app, bench := range []string{"mcf", "lbm"} {
				e.Record(&telemetry.QuantumRecord{
					Mix:       "mcf+lbm",
					App:       app,
					Bench:     bench,
					Quantum:   q,
					Actual:    1 + float64(q+app),
					Estimates: map[string]float64{"ASM": 1.5 * float64(q+1)},
				})
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if got := len(e.Alerts()); got != len(spec.SLOs) {
			t.Fatalf("Alerts() has %d statuses for %d slos", got, len(spec.SLOs))
		}
	})
}
