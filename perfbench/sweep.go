package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asmsim/internal/core"
	"asmsim/internal/exp"
	"asmsim/internal/model"
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// Sweep scales. A registry sweep shares one instruction-stream seed
// across all its mixes, so one sweep's ASM error and cost ride on that
// seed; a unit therefore runs several sweeps under seeds derived from
// the run's seed. sweep-mixed is fig2 at the quick scale's quantum with
// one measured quantum: four sweeps of 25 mixes, 100 mixes in all (the
// paper's count), ten beyond the p90 of per-mix time. sweep-mem runs
// the memory-intensive accuracy sweep at the quantum and length of the
// repository's BenchmarkSweepAccuracyMemIntensive, over enough mixes to
// take about as long as a sweep-mixed unit.
const (
	sweepCount = 4

	mixedMixes    = 25 // per sweep
	mixedMeasured = 1

	memMixes   = 75 // per sweep
	memQuantum = 300_000
	memWarmup  = 1
	memMeasure = 2
)

// sweepSeed derives the k-th sweep's seed from the run's seed.
func sweepSeed(seed uint64, k int) uint64 { return seed*100 + uint64(k) }

// estimateCap is the models' clamp on a slowdown estimate (50x): an
// estimate at the cap is a silent guard, not a measurement.
const estimateCap = 50.0

// memPool is the memory-intensive pool of BenchmarkSweepAccuracyMemIntensive:
// high-MPKI benchmarks whose cores sleep on misses most of the time.
var memPool = []string{"mcf", "libquantum", "soplex", "milc"}

// recorder collects a sweep's quantum records in memory: the samples the
// accuracy figures are built from, and the per-app counters the layer
// metrics sum.
type recorder struct {
	mu      sync.Mutex
	warmup  int
	samples []exp.Sample
	mixes   []string
	c       telemetry.AppCounters
	records int
}

func (r *recorder) Record(rec *telemetry.QuantumRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records++
	c := rec.Counters
	r.c.Retired += c.Retired
	r.c.MemStallCycles += c.MemStallCycles
	r.c.L2Accesses += c.L2Accesses
	r.c.L2Misses += c.L2Misses
	r.c.MissCount += c.MissCount
	r.c.MissLatencySum += c.MissLatencySum
	if rec.Quantum < r.warmup {
		return
	}
	est := make(map[string]float64, len(rec.Estimates))
	for k, v := range rec.Estimates {
		est[k] = v
	}
	r.samples = append(r.samples, exp.Sample{Bench: rec.Bench, App: rec.App, Quantum: rec.Quantum, Actual: rec.Actual, Est: est})
	r.mixes = append(r.mixes, rec.Mix)
}

func (r *recorder) Close() error { return nil }

// add folds another recorder's counts into r, n times over.
func (r *recorder) add(o *recorder, n uint64) {
	r.records += int(n) * o.records
	r.c.Retired += n * o.c.Retired
	r.c.MemStallCycles += n * o.c.MemStallCycles
	r.c.L2Accesses += n * o.c.L2Accesses
	r.c.L2Misses += n * o.c.L2Misses
	r.c.MissCount += n * o.c.MissCount
	r.c.MissLatencySum += n * o.c.MissLatencySum
}

// counterLayers fills the simulated-count metrics derived from the
// recorded per-app counters; quantum is the quantum length in cycles.
func (r *recorder) counterLayers(layer map[string]float64, quantum uint64) {
	c := r.c
	layer["cpu.instr_retired_m"] = float64(c.Retired) / 1e6
	layer["cpu.mem_stall_frac"] = ratio(float64(c.MemStallCycles), float64(r.records)*float64(quantum))
	layer["cache.l2_mpki"] = ratio(1000*float64(c.L2Misses), float64(c.Retired))
	layer["dram.misses_m"] = float64(c.MissCount) / 1e6
	layer["dram.avg_miss_latency_cyc"] = ratio(float64(c.MissLatencySum), float64(c.MissCount))
}

// clampFrac is the share of scored samples whose estimate from est sits
// at the models' cap.
func clampFrac(samples []exp.Sample, est string) float64 {
	n, at := 0, 0
	for _, s := range samples {
		v, ok := s.Est[est]
		if !ok {
			continue
		}
		n++
		if v >= estimateCap {
			at++
		}
	}
	return ratio(float64(at), float64(n))
}

// regValues snapshots a registry's counters and gauges (and the event
// count of its timers and histograms) by name.
func regValues(reg *telemetry.Registry) map[string]float64 {
	v := map[string]float64{}
	for _, m := range reg.Snapshot() {
		v[m.Name] = float64(m.Value)
	}
	return v
}

// registryLayers fills the metrics the simulator publishes into a
// telemetry registry (v, as regValues returns it): skip-ahead, forced
// wakes, alone-curve work and sweep worker use. It returns the
// shared-run simulated cycles and the alone-replica cycles.
func registryLayers(v map[string]float64, layer map[string]float64) (shared, alone float64) {
	shared = v["sim.cycles"]
	alone = v["sim.alone_cache.extended_cycles"]
	layer["sim.skip_cycle_frac"] = ratio(v["sim.skip.cycles"], shared)
	layer["sim.skip_windows"] = v["sim.skip.windows"]
	layer["sim.forced_wakes"] = v["sim.core.forced_wakes"]
	layer["sim.alone_extended_mcycles"] = alone / 1e6
	layer["exp.worker_util_pct"] = 100 * ratio(v["exp.busy_ns"], v["exp.capacity_ns"])
	return shared, alone
}

// tableASM parses the ASM column of an accuracy table's AVERAGE row.
func tableASM(t *exp.Table) (float64, error) {
	if len(t.Rows) == 0 || len(t.Header) == 0 || t.Header[len(t.Header)-1] != "ASM" {
		return 0, fmt.Errorf("table %s has no ASM column", t.ID)
	}
	last := t.Rows[len(t.Rows)-1]
	if last[0] != "AVERAGE" || len(last) != len(t.Header) {
		return 0, fmt.Errorf("table %s has no AVERAGE row", t.ID)
	}
	return strconv.ParseFloat(strings.TrimSuffix(last[len(last)-1], "%"), 64)
}

// sampleLine renders one labelled sample exactly, float bits included.
func sampleLine(label string, s exp.Sample) string {
	return fmt.Sprintf("%s|%s|%d|%d|%s|%s", label, s.Bench, s.App, s.Quantum, bits(s.Actual), estBits(s.Est))
}

// sampleDigest hashes every sample's actual slowdown and estimates.
func sampleDigest(samples []exp.Sample, labels []string) string {
	var d digester
	for i, s := range samples {
		d.add("%s", sampleLine(labels[i], s))
	}
	return d.sum()
}

// canonicalOrder sorts samples gathered in a nondeterministic order
// (sweep workers finish out of order) so that sums over them are
// bit-identical from run to run.
func canonicalOrder(samples []exp.Sample, labels []string) {
	idx := make([]int, len(samples))
	lines := make([]string, len(samples))
	for i := range idx {
		idx[i], lines[i] = i, sampleLine(labels[i], samples[i])
	}
	sort.Slice(idx, func(a, b int) bool { return lines[idx[a]] < lines[idx[b]] })
	s2, l2 := make([]exp.Sample, len(idx)), make([]string, len(idx))
	for i, j := range idx {
		s2[i], l2[i] = samples[j], labels[j]
	}
	copy(samples, s2)
	copy(labels, l2)
}

// buildAll constructs every mix's simulated system under cfg.
func buildAll(cfg sim.Config, mixes []workload.Mix) error {
	for _, m := range mixes {
		specs := m.Specs()
		cfg.Cores = len(specs)
		if _, err := sim.New(cfg, specs); err != nil {
			return fmt.Errorf("mix %s: %w", m, err)
		}
	}
	return nil
}

// sweepMixed runs the fig2 experiment through the experiment registry,
// as `experiments -run fig2 -workloads 25 -quanta 1 -seed <s>` runs it,
// once per derived seed: random 4-core mixes from the full SPEC+NAS
// pool, an unsampled ATS, every estimator, and ground truth from a fresh
// shared alone-curve cache.
type sweepMixed struct {
	e      exp.Experiment
	scales []exp.Scale
}

func newSweepMixed() bench { return &sweepMixed{} }

func (w *sweepMixed) nominalOps() int { return sweepCount * mixedMixes }

func (w *sweepMixed) setup(seed uint64, _ string) error {
	e, err := exp.ByID("fig2")
	if err != nil {
		return err
	}
	w.e, w.scales = e, nil
	pool := append(workload.SPEC(), workload.NAS()...)
	for k := 0; k < sweepCount; k++ {
		sc := exp.Quick()
		sc.Workloads = mixedMixes
		sc.MeasuredQuanta = mixedMeasured
		sc.Seed = sweepSeed(seed, k)
		cfg := sc.BaseConfig()
		cfg.ATSSampledSets = 0
		// fig2 draws exactly these mixes; building each one's system
		// checks, before anything is timed, that every run can start.
		if err := buildAll(cfg, workload.RandomMixes(pool, 4, sc.Workloads, sc.Seed)); err != nil {
			return err
		}
		w.scales = append(w.scales, sc)
	}
	return nil
}

func (w *sweepMixed) teardown() {}

func (w *sweepMixed) run(ctx context.Context, tr *tracer) (*unit, error) {
	type sweep struct {
		sc            exp.Scale
		reg           *telemetry.Registry
		rec           *recorder
		table         *exp.Table
		points, saved float64 // the sweep's alone-curve cache, once dropped
	}
	sweeps := make([]sweep, len(w.scales))
	for k, sc := range w.scales {
		sc.AloneCache = sim.NewAloneCurveCache()
		sc.Telemetry.Metrics = telemetry.NewRegistry()
		rec := &recorder{warmup: sc.WarmupQuanta}
		sc.Telemetry.Recorder = rec
		sweeps[k] = sweep{sc: sc, reg: sc.Telemetry.Metrics, rec: rec}
	}

	win, err := openWindow(tr != nil)
	if err != nil {
		return nil, err
	}
	for k := range sweeps {
		sp := tr.start(fmt.Sprintf("sweep-%d", k), "exp.Experiment.Run", 0)
		sweeps[k].table, err = w.e.Run(ctx, sweeps[k].sc)
		sp.end()
		if err != nil {
			win.close()
			return nil, fmt.Errorf("fig2: %w", err)
		}
		// Keep the cache's counts only: one invocation per sweep would
		// drop its curves too, and holding all of them multiplies the
		// resident memory.
		cache := sweeps[k].sc.AloneCache
		sweeps[k].points, sweeps[k].saved = float64(cache.Points()), float64(cache.SavedCycles())
		sweeps[k].sc.AloneCache = nil
	}
	win.close()

	u := &unit{win: win, valid: true, layer: map[string]float64{}, overheadBasis: win.wall}
	var samples []exp.Sample
	var labels []string
	reg := map[string]float64{}
	var counts recorder
	var points, saved float64
	for k, s := range sweeps {
		u.attempted += s.sc.Workloads
		for _, f := range s.table.Failures {
			u.problem("fig2 sweep %d lost %s", k, f)
		}
		// Per-mix wall times come from the sweep's own per-item timers.
		timed := 0
		for _, m := range s.reg.Snapshot() {
			if m.Kind == "timer" && strings.HasPrefix(m.Name, "exp.item.") && m.Value > 0 {
				for i := int64(0); i < m.Value; i++ {
					u.ops = append(u.ops, float64(m.TotalNs)/float64(m.Value)/1e9)
					timed++
				}
			}
		}
		if timed != s.sc.Workloads {
			u.problem("fig2 sweep %d timed %d of %d mixes", k, timed, s.sc.Workloads)
		}
		if want := s.sc.Workloads * 4 * s.sc.MeasuredQuanta; len(s.rec.samples) != want {
			u.problem("fig2 sweep %d scored %d samples, want %d", k, len(s.rec.samples), want)
		}
		// The figure's AVERAGE row must be the mean over the recorded
		// samples, to its printed precision (the sweep sums in another
		// order).
		recorded := exp.MeanError(s.rec.samples, "ASM")
		if avg, err := tableASM(s.table); err != nil || math.Abs(avg-recorded) > 0.051 {
			u.problem("fig2 sweep %d reports ASM average %v (%v), samples give %.3f%%", k, avg, err, recorded)
		}
		samples = append(samples, s.rec.samples...)
		for _, m := range s.rec.mixes {
			labels = append(labels, fmt.Sprintf("%d:%s", k, m))
		}
		for name, v := range regValues(s.reg) {
			reg[name] += v
		}
		counts.add(s.rec, 1)
		points += s.points
		saved += s.saved
	}
	canonicalOrder(samples, labels)
	u.asmErr = exp.MeanError(samples, "ASM")
	u.digest = sampleDigest(samples, labels)

	shared, alone := registryLayers(reg, u.layer)
	u.simMcycles = (shared + alone) / 1e6
	counts.counterLayers(u.layer, w.scales[0].Quantum)
	// With an unsampled ATS every set is sampled, so every demand L2
	// access probes the ATS.
	u.layer["cache.ats_probes_m"] = float64(counts.c.L2Accesses) / 1e6
	u.layer["sim.alone_points_m"] = points / 1e6
	u.layer["sim.alone_saved_mcycles"] = saved / 1e6
	u.layer["exp.mix_s_p50"] = median(u.ops)
	u.layer["exp.mix_s_max"] = maxOf(u.ops)
	u.layer["est.asm_clamp_frac"] = clampFrac(samples, "ASM")
	u.layer["est.ptca_clamp_frac"] = clampFrac(samples, "PTCA")
	return u, nil
}

// sweepMem runs exp.RunAccuracy over mixes drawn from the
// memory-intensive pool, with a 64-set sampled ATS and at most nproc
// mixes at a time. Each sweep seeds its mixes as the experiment
// registry's sweeps do and shares one alone-curve cache.
type sweepMem struct {
	cfg    sim.Config
	scales []exp.Scale
	mixes  [][]workload.Mix
}

func newSweepMem() bench { return &sweepMem{} }

func (w *sweepMem) nominalOps() int { return sweepCount * memMixes }

func (w *sweepMem) setup(seed uint64, _ string) error {
	pool := make([]workload.Spec, len(memPool))
	for i, n := range memPool {
		sp, ok := workload.ByName(n)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", n)
		}
		pool[i] = sp
	}
	w.scales, w.mixes = nil, nil
	for k := 0; k < sweepCount; k++ {
		sc := exp.Quick()
		sc.Quantum = memQuantum
		sc.WarmupQuanta = memWarmup
		sc.MeasuredQuanta = memMeasure
		sc.Seed = sweepSeed(seed, k)
		cfg := sc.BaseConfig()
		cfg.ATSSampledSets = 64
		mixes := workload.RandomMixes(pool, 4, memMixes, sc.Seed)
		if err := buildAll(cfg, mixes); err != nil {
			return err
		}
		w.cfg = cfg
		w.scales = append(w.scales, sc)
		w.mixes = append(w.mixes, mixes)
	}
	return nil
}

func (w *sweepMem) teardown() {}

// timedEst wraps an estimator so traced runs time every estimate; the
// ASM wrapper also counts ATS probes from the quantum's counters.
type timedEst struct {
	core.Estimator
	tr     *tracer
	trace  string
	parent uint64
	probes *atomic.Uint64
}

func (e *timedEst) Estimate(st *sim.QuantumStats) []float64 {
	if e.probes != nil {
		for i := range st.Apps {
			e.probes.Add(st.Apps[i].ATSProbes)
		}
	}
	sp := e.tr.start(e.trace, "est."+strings.ToLower(e.Name()), e.parent)
	out := e.Estimator.Estimate(st)
	sp.end()
	return out
}

// estimators builds the sweep's estimator set, each behind the
// sanitizing guard the experiments use, wrapped for timing.
func estimators(tr *tracer, trace string, parent uint64, probes *atomic.Uint64) exp.EstimatorSet {
	return func() []core.Estimator {
		inner := core.SanitizeAll([]core.Estimator{core.NewASM(), model.NewFST(), model.NewPTCA(), model.NewMISE()})
		out := make([]core.Estimator, len(inner))
		for i, e := range inner {
			te := &timedEst{Estimator: e, tr: tr, trace: trace, parent: parent}
			if i == 0 {
				te.probes = probes
			}
			out[i] = te
		}
		return out
	}
}

func (w *sweepMem) run(ctx context.Context, tr *tracer) (*unit, error) {
	reg := telemetry.NewRegistry()
	rec := &recorder{warmup: memWarmup}
	scales := make([]exp.Scale, len(w.scales))
	for k, sc := range w.scales {
		sc.AloneCache = sim.NewAloneCurveCache()
		sc.Telemetry.Metrics = reg
		sc.Telemetry.Recorder = rec
		scales[k] = sc
	}
	var probes atomic.Uint64
	type item struct{ sweep, mix int }
	var items []item
	for k, mixes := range w.mixes {
		for i := range mixes {
			items = append(items, item{k, i})
		}
	}
	n := len(items)
	results := make([][]exp.Sample, n)
	errs := make([]error, n)
	times := make([]float64, n)
	workers := min(runtime.GOMAXPROCS(0), n)

	win, err := openWindow(tr != nil)
	if err != nil {
		return nil, err
	}
	root := tr.start("sweep", "sweep", 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n || ctx.Err() != nil {
					return
				}
				it, sc := items[j], scales[items[j].sweep]
				c := w.cfg
				// Per-mix Seed and a sweep-wide StreamSeed, as the
				// registry's accuracy sweeps set them, so the alone-curve
				// cache shares one curve per benchmark.
				c.Seed = sc.Seed + uint64(it.mix)*1000
				c.StreamSeed = sc.Seed
				trace := fmt.Sprintf("sweep-%d-mix-%d", it.sweep, it.mix)
				sp := tr.start(trace, "exp.RunAccuracy", root.id())
				t0 := time.Now()
				results[j], errs[j] = exp.RunAccuracy(ctx, c, w.mixes[it.sweep][it.mix], estimators(tr, trace, sp.id(), &probes), sc)
				times[j] = time.Since(t0).Seconds()
				sp.end()
			}
		}()
	}
	wg.Wait()
	root.end()
	win.close()

	u := &unit{win: win, attempted: n, valid: true, layer: map[string]float64{}, ops: times, overheadBasis: win.wall}
	var samples []exp.Sample
	var labels []string
	var busy float64
	for j, s := range results {
		it := items[j]
		mix := w.mixes[it.sweep][it.mix]
		busy += times[j]
		if errs[j] != nil {
			u.problem("sweep %d mix %s: %v", it.sweep, mix, errs[j])
			continue
		}
		if len(s) != 4*memMeasure {
			u.problem("sweep %d mix %s scored %d samples, want %d", it.sweep, mix, len(s), 4*memMeasure)
		}
		for _, x := range s {
			samples = append(samples, x)
			labels = append(labels, fmt.Sprintf("%d:%d:%s", it.sweep, it.mix, mix))
		}
	}
	u.asmErr = exp.MeanError(samples, "ASM")
	u.digest = sampleDigest(samples, labels)

	shared, alone := registryLayers(regValues(reg), u.layer)
	u.simMcycles = (shared + alone) / 1e6
	rec.counterLayers(u.layer, memQuantum)
	var points, saved float64
	for _, sc := range scales {
		points += float64(sc.AloneCache.Points())
		saved += float64(sc.AloneCache.SavedCycles())
	}
	u.layer["cache.ats_probes_m"] = float64(probes.Load()) / 1e6
	u.layer["sim.alone_points_m"] = points / 1e6
	u.layer["sim.alone_saved_mcycles"] = saved / 1e6
	u.layer["exp.mix_s_p50"] = median(times)
	u.layer["exp.mix_s_max"] = maxOf(times)
	u.layer["exp.worker_util_pct"] = 100 * ratio(busy, win.wall*float64(workers))
	u.layer["est.asm_clamp_frac"] = clampFrac(samples, "ASM")
	u.layer["est.ptca_clamp_frac"] = clampFrac(samples, "PTCA")
	u.layer["est.asm_us_p50"] = 1e6 * median(tr.durations("est.asm"))
	u.layer["est.fst_us_p50"] = 1e6 * median(tr.durations("est.fst"))
	u.layer["est.ptca_us_p50"] = 1e6 * median(tr.durations("est.ptca"))
	return u, nil
}
