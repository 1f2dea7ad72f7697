package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"asmsim/internal/cluster"
	"asmsim/internal/core"
	"asmsim/internal/exp"
	"asmsim/internal/rng"
	"asmsim/internal/sim"
	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

// Cluster shape. Each cluster runs every SPEC+NAS benchmark once,
// shuffled by the seed onto 4-core machines; each round simulates
// RoundQuanta quanta per machine (the first warms structures), then one
// rebalance and an admission check per machine. One unit runs
// clusterCount independently placed clusters for clusterRoundsEach
// rounds each: 100 rounds, enough for ten samples beyond p90, over 20
// placements and simulation seeds, so the ASM error a run reports averages enough co-runner
// mixes to steady across seeds.
const (
	clusterCores      = 4
	clusterQuantum    = 100_000
	clusterRoundQ     = 2
	clusterCount      = 20
	clusterRoundsEach = 5
	clusterTolerance  = 0.1
	clusterSLA        = 3.0
)

// clusterBench drives cluster.New's balancer through fixed rounds of
// EvaluateRound, Rebalance and CanAdmit: machines simulated one after
// another on one core, with ASM estimates and no ground truth.
type clusterBench struct {
	clusters []*cluster.Cluster
	systems  []sim.Config // each cluster's machine configuration
}

func newClusterRounds() bench { return &clusterBench{} }

func (w *clusterBench) nominalOps() int { return clusterCount * clusterRoundsEach }

func (w *clusterBench) setup(seed uint64, _ string) error {
	sys := sim.DefaultConfig()
	sys.Quantum = clusterQuantum
	sys.ATSSampledSets = 64
	sys.Cores = clusterCores
	pool := append(workload.SPEC(), workload.NAS()...)
	if len(pool)%clusterCores != 0 {
		return fmt.Errorf("pool of %d benchmarks does not fill %d-core machines", len(pool), clusterCores)
	}
	w.clusters, w.systems = nil, nil
	perm := make([]int, len(pool))
	for k := 0; k < clusterCount; k++ {
		// Each cluster has its own simulation seed (instruction streams
		// and epoch lotteries), as the registry's sweeps give each mix.
		sys.Seed = seed + uint64(k)*1000
		rng.NewNamed(seed, fmt.Sprintf("perfbench/cluster/%d", k)).Perm(perm)
		placement := make(cluster.Placement, len(pool)/clusterCores)
		mixes := make([]workload.Mix, len(placement))
		for i, p := range perm {
			m := i / clusterCores
			placement[m] = append(placement[m], pool[p].Name)
			mixes[m].Names = placement[m]
		}
		if err := buildAll(sys, mixes); err != nil {
			return err
		}
		cl, err := cluster.New(cluster.Config{Machines: len(placement), System: sys, RoundQuanta: clusterRoundQ}, placement)
		if err != nil {
			return err
		}
		w.clusters = append(w.clusters, cl)
		w.systems = append(w.systems, sys)
	}
	return nil
}

func (w *clusterBench) teardown() { w.clusters, w.systems = nil, nil }

// evaluation is one machine mix the balancer evaluated, with the
// estimates it acted on and how many times it acted on them.
type evaluation struct {
	cluster   int
	jobs      []string
	slowdowns []float64
	count     int
}

func (w *clusterBench) run(ctx context.Context, tr *tracer) (*unit, error) {
	u := &unit{valid: true, layer: map[string]float64{}}
	seen := map[string]*evaluation{}
	var order []string
	var evalTimes, rebalTimes []float64

	win, err := openWindow(tr != nil)
	if err != nil {
		return nil, err
	}
	for k, cl := range w.clusters {
		for r := 0; r < clusterRoundsEach && ctx.Err() == nil; r++ {
			trace := fmt.Sprintf("cluster-%d-round-%d", k, r)
			root := tr.start(trace, "round", 0)
			t0 := time.Now()
			sp := tr.start(trace, "cluster.EvaluateRound", root.id())
			err := cl.EvaluateRound()
			sp.end()
			t1 := time.Now()
			u.attempted++
			if err != nil {
				u.problem("cluster %d round %d: %v", k, r, err)
				root.end()
				continue
			}
			// Record what the balancer is about to act on; a mix the
			// cluster evaluates again must give bit-identical estimates.
			for i, m := range cl.Machines() {
				if m.Slowdowns == nil {
					continue
				}
				key := fmt.Sprintf("%d:%s", k, strings.Join(m.Jobs, "+"))
				if e := seen[key]; e != nil {
					e.count++
					if vecBits(m.Slowdowns) != vecBits(e.slowdowns) {
						u.problem("cluster %d round %d machine %d: mix %s re-evaluated to different estimates", k, r, i, key)
					}
				} else {
					seen[key] = &evaluation{cluster: k, jobs: append([]string(nil), m.Jobs...), slowdowns: append([]float64(nil), m.Slowdowns...), count: 1}
					order = append(order, key)
				}
			}
			sp = tr.start(trace, "cluster.Rebalance", root.id())
			_, err = cl.Rebalance(clusterTolerance)
			sp.end()
			t2 := time.Now()
			if err != nil {
				u.problem("cluster %d round %d rebalance: %v", k, r, err)
			}
			for i, m := range cl.Machines() {
				if m.Slowdowns == nil {
					continue // just migrated: no estimates until the next round
				}
				sp = tr.start(trace, "cluster.CanAdmit", root.id())
				_, err := cl.CanAdmit(i, clusterSLA)
				sp.end()
				if err != nil {
					u.problem("cluster %d round %d admit %d: %v", k, r, i, err)
				}
			}
			root.end()
			u.ops = append(u.ops, time.Since(t0).Seconds())
			evalTimes = append(evalTimes, t1.Sub(t0).Seconds())
			rebalTimes = append(rebalTimes, t2.Sub(t1).Seconds())
		}
	}
	win.close()
	u.win = win
	u.overheadBasis = win.wall

	var d digester
	migrations, worst := 0, 0.0
	for k, cl := range w.clusters {
		for _, mv := range cl.Migrations {
			d.add("migration|%d|%d|%s|%d|%d|%s", k, mv.Round, mv.Job, mv.From, mv.To, mv.Swapped)
		}
		for i, m := range cl.Machines() {
			d.add("final|%d|%d|%s|%s", k, i, strings.Join(m.Jobs, "+"), vecBits(m.Slowdowns))
		}
		migrations += len(cl.Migrations)
		worst = max(worst, cl.WorstSlowdown())
	}
	for _, key := range order {
		d.add("eval|%s|%d|%s", key, seen[key].count, vecBits(seen[key].slowdowns))
	}
	u.digest = d.sum()

	if err := w.verify(ctx, u, seen, order); err != nil {
		return nil, err
	}
	u.layer["cluster.evaluate_ms_p50"] = 1000 * median(evalTimes)
	u.layer["cluster.rebalance_us_p50"] = 1e6 * median(rebalTimes)
	u.layer["cluster.migrations"] = float64(migrations)
	u.layer["cluster.worst_slowdown"] = worst
	return u, nil
}

// verify re-runs every distinct machine mix the balancer evaluated
// through exp.RunAccuracy, with the balancer's own estimator (sanitized
// ASM), machine configuration and round length. The mean estimate over
// the measured quanta must match the balancer's bit for bit, and the
// alone-run ground truth gives the error of the estimates the balancer
// acted on, weighted by how often it acted on them. The balancer's runs
// are deterministic replays of these, so the unit's simulated counts are
// these runs' counts times the evaluation counts.
func (w *clusterBench) verify(ctx context.Context, u *unit, seen map[string]*evaluation, order []string) error {
	var all []exp.Sample
	var shared, probes float64
	var counts recorder
	agg := map[string]float64{}
	var alone *sim.AloneCurveCache
	for i, key := range order {
		e := seen[key]
		sys := w.systems[e.cluster]
		// Mixes come in cluster order; each cluster's seed has its own
		// alone curves, so one cache per cluster bounds memory.
		if i == 0 || e.cluster != seen[order[i-1]].cluster {
			alone = sim.NewAloneCurveCache()
		}
		run := exp.Scale{
			WarmupQuanta:   1,
			MeasuredQuanta: clusterRoundQ - 1,
			Quantum:        sys.Quantum,
			Epoch:          sys.Epoch,
			Seed:           sys.Seed,
			AloneCache:     alone,
		}
		reg := telemetry.NewRegistry()
		rec := &recorder{warmup: run.WarmupQuanta}
		run.Telemetry.Metrics = reg
		run.Telemetry.Recorder = rec
		var mixProbes atomic.Uint64
		ests := func() []core.Estimator {
			return []core.Estimator{&timedEst{Estimator: core.Sanitize(core.NewASM()), probes: &mixProbes}}
		}
		samples, err := exp.RunAccuracy(ctx, sys, workload.Mix{Names: e.jobs}, ests, run)
		if err != nil {
			return fmt.Errorf("verify %s: %w", key, err)
		}
		sums := make([]float64, len(e.jobs))
		for _, s := range samples {
			sums[s.App] += s.Est["ASM"]
		}
		for a := range sums {
			sums[a] /= float64(run.MeasuredQuanta)
			if sums[a] != e.slowdowns[a] {
				u.problem("mix %s app %d: balancer estimate %v, direct run %v", key, a, e.slowdowns[a], sums[a])
			}
		}
		n := float64(e.count)
		for c := 0; c < e.count; c++ {
			all = append(all, samples...)
		}
		layer := map[string]float64{}
		cyc, _ := registryLayers(regValues(reg), layer)
		shared += n * cyc
		probes += n * float64(mixProbes.Load())
		agg["skip_windows"] += n * layer["sim.skip_windows"]
		agg["forced_wakes"] += n * layer["sim.forced_wakes"]
		agg["skip_cycles"] += n * layer["sim.skip_cycle_frac"] * cyc
		counts.add(rec, uint64(e.count))
	}
	u.asmErr = exp.MeanError(all, "ASM")
	u.simMcycles = shared / 1e6
	u.layer["sim.skip_windows"] = agg["skip_windows"]
	u.layer["sim.forced_wakes"] = agg["forced_wakes"]
	u.layer["sim.skip_cycle_frac"] = ratio(agg["skip_cycles"], shared)
	counts.counterLayers(u.layer, clusterQuantum)
	u.layer["cache.ats_probes_m"] = probes / 1e6
	u.layer["est.asm_clamp_frac"] = clampFrac(all, "ASM")
	return nil
}
