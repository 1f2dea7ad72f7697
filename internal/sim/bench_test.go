package sim

import (
	"io"
	"testing"

	"asmsim/internal/evtrace"
	"asmsim/internal/workload"
)

// benchSystem builds a 4-core contended system.
func benchSystem(b *testing.B, prefetch bool) *System {
	return benchSystemCfg(b, prefetch, false)
}

// benchSystemCfg builds the 4-core contended system, optionally pinning
// the cycle-by-cycle reference path (skip-ahead disabled).
func benchSystemCfg(b *testing.B, prefetch, disableSkip bool) *System {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	cfg.Prefetch = prefetch
	cfg.DisableSkipAhead = disableSkip
	return benchSystemFrom(b, cfg)
}

// benchSystemFrom builds the 4-core contended mix under cfg.
func benchSystemFrom(b testing.TB, cfg Config) *System {
	b.Helper()
	var specs []workload.Spec
	for _, n := range []string{"mcf", "libquantum", "bzip2", "h264ref"} {
		s, ok := workload.ByName(n)
		if !ok {
			b.Fatal(n)
		}
		specs = append(specs, s)
	}
	sys, err := New(cfg, specs)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkSystemTick measures per-cycle simulation cost for the default
// 4-core contended system.
func BenchmarkSystemTick(b *testing.B) {
	sys := benchSystem(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Tick()
	}
}

// BenchmarkSystemTickPrefetch includes the stride prefetcher.
func BenchmarkSystemTickPrefetch(b *testing.B) {
	sys := benchSystem(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Tick()
	}
}

// BenchmarkRunQuanta measures whole-quantum simulation cost for the
// default 4-core contended system — the guard benchmark for telemetry's
// disabled-path overhead (<2% regression allowed).
func BenchmarkRunQuanta(b *testing.B) {
	sys := benchSystem(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunQuanta(1)
	}
	b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
}

// BenchmarkRunQuantaSkipOff is BenchmarkRunQuanta pinned to the
// cycle-by-cycle reference path; the ratio against BenchmarkRunQuanta
// (skip-ahead on by default) is the fast path's speedup on the contended
// 4-core mix.
func BenchmarkRunQuantaSkipOff(b *testing.B) {
	sys := benchSystemCfg(b, false, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunQuanta(1)
	}
	b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
}

// BenchmarkRunQuantaTraceDisabled is the tracing disabled-path guard: a
// system that never had SetTracer called must run the quantum loop with
// zero tracing allocations (the nil checks are the entire cost).
// TestRunInsideQuantumAllocationFree enforces zero allocations between
// quantum boundaries; what remains here is the boundary itself.
func BenchmarkRunQuantaTraceDisabled(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunQuanta(1)
	}
	b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
}

// BenchmarkRunQuantaTraced measures the cost of full event tracing
// (sampled spans + exact attribution) against BenchmarkRunQuantaTraceDisabled.
func BenchmarkRunQuantaTraced(b *testing.B) {
	sys := benchSystem(b, false)
	sys.SetTracer(evtrace.New(io.Discard, evtrace.Config{SampleEvery: 64}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunQuanta(1)
	}
	b.ReportMetric(float64(sys.Config().Quantum), "cycles/op")
}

// BenchmarkAloneProfile measures the ground-truth replay cost per
// retired instruction.
func BenchmarkAloneProfile(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	spec, _ := workload.ByName("bzip2")
	p, err := NewAloneProfile(cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	p.CyclesAt(uint64(b.N))
}

// BenchmarkAloneProfileSkipOff is BenchmarkAloneProfile on the reference
// path. Alone replicas are where skip-ahead bites hardest: a single
// memory-bound app sleeps through most of its cycles, and with one app
// the controller can prove long quiescent windows.
func BenchmarkAloneProfileSkipOff(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	cfg.DisableSkipAhead = true
	spec, _ := workload.ByName("bzip2")
	p, err := NewAloneProfile(cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	p.CyclesAt(uint64(b.N))
}

// BenchmarkAloneCurveCache measures extending one shared alone curve
// through a cursor by b.N instructions: the replica's ticks plus the
// per-point append, reported per recorded point along with the encoded
// bytes each point takes.
func BenchmarkAloneCurveCache(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	spec, _ := workload.ByName("bzip2")
	cache := NewAloneCurveCache()
	cu, err := cache.Cursor(cfg, SourcesFromSpecs([]workload.Spec{spec}, cfg.streamSeed())[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cu.CyclesAt(uint64(b.N))
	b.StopTimer()
	if p := float64(cache.Points()); p > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/p, "ns/point")
		b.ReportMetric(float64(cache.Bytes())/p, "B/point")
	}
}

// BenchmarkGeneratorNext measures instruction synthesis cost.
func BenchmarkGeneratorNext(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	g := workload.NewGenerator(spec, 0, 1)
	var in workload.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}
