package exp

import (
	"context"
	"fmt"

	"asmsim/internal/core"
	"asmsim/internal/model"
	"asmsim/internal/sim"
	"asmsim/internal/workload"
)

// runAblEpoch compares probabilistic vs round-robin epoch assignment
// (Section 4.2 says both achieve similar accuracy; the probabilistic
// policy is kept because ASM-Mem builds on it).
func runAblEpoch(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	t := &Table{
		ID:     "abl-epoch",
		Title:  "Ablation: epoch assignment policy (Section 4.2)",
		Header: []string{"assignment", "ASM avg error"},
	}
	manifest := &Manifest{}
	for _, rr := range []bool{false, true} {
		cfg := sc.BaseConfig()
		cfg.ATSSampledSets = 64
		cfg.EpochRoundRobin = rr
		samples, m, err := accuracySweep(ctx, cfg, mixes, sc)
		if err != nil {
			return nil, err
		}
		manifest.Merge(m)
		name := "probabilistic"
		if rr {
			name = "round-robin"
		}
		t.AddRow(name, pct(MeanError(samples, "ASM")))
	}
	t.AddNote("paper: the two policies achieve similar effects; probabilistic assignment is what ASM-Mem generalizes")
	attach(t, manifest)
	return t, nil
}

// runAblQueueing measures the value of ASM's Section 4.3 memory queueing
// correction.
func runAblQueueing(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	t := &Table{
		ID:     "abl-queueing",
		Title:  "Ablation: Section 4.3 queueing-delay correction",
		Header: []string{"variant", "ASM avg error"},
	}
	manifest := &Manifest{}
	for _, disable := range []bool{false, true} {
		dis := disable
		newEst := func() []core.Estimator {
			a := core.NewASM()
			a.NoQueueingCorrection = dis
			return core.SanitizeAll([]core.Estimator{a})
		}
		results := make([][]Sample, len(mixes))
		fails, cancelled := forEach(ctx, len(mixes),
			func(i int) string { return mixes[i].String() },
			sc.Telemetry,
			func(i int) error {
				c := cfg
				c.Seed = sc.Seed + uint64(i)*1000
				c.StreamSeed = sc.Seed
				s, err := RunAccuracy(ctx, c, mixes[i], newEst, sc)
				if err != nil {
					return err
				}
				results[i] = s
				return nil
			})
		var all []Sample
		completed := 0
		for _, s := range results {
			if s != nil {
				completed++
				all = append(all, s...)
			}
		}
		manifest.Merge(&Manifest{Total: len(mixes), Completed: completed, Failures: fails, Cancelled: cancelled})
		if completed == 0 && len(mixes) > 0 {
			if len(fails) > 0 {
				return nil, fmt.Errorf("exp: sweep produced no results: %w", fails[0])
			}
			return nil, fmt.Errorf("exp: sweep cancelled before any mix completed: %w", ctx.Err())
		}
		name := "with correction"
		if dis {
			name = "without correction"
		}
		t.AddRow(name, pct(MeanError(all, "ASM")))
	}
	t.AddNote("the correction matters most at higher core counts (Section 6.5); even at 4 cores it should not hurt")
	attach(t, manifest)
	return t, nil
}

// runAblATS sweeps the auxiliary-tag-store sampling budget (Section 4.4
// claims 64 sampled sets lose almost nothing vs a full ATS).
func runAblATS(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	t := &Table{
		ID:     "abl-ats",
		Title:  "Ablation: ATS sampled-set budget (Section 4.4)",
		Header: []string{"sampled sets", "ASM avg error", "PTCA avg error"},
	}
	manifest := &Manifest{}
	for _, sets := range []int{8, 32, 64, 256, 0} {
		cfg := sc.BaseConfig()
		cfg.ATSSampledSets = sets
		samples, m, err := accuracySweep(ctx, cfg, mixes, sc)
		if err != nil {
			return nil, err
		}
		manifest.Merge(m)
		label := fmt.Sprint(sets)
		if sets == 0 {
			label = "full"
		}
		t.AddRow(label, pct(MeanError(samples, "ASM")), pct(MeanError(samples, "PTCA")))
	}
	t.AddNote("paper: sampling barely moves ASM (9.0%% -> 9.9%%) but destroys PTCA (14.7%% -> 40.4%%)")
	attach(t, manifest)
	return t, nil
}

// runAblCARn validates the Section 7.1 CAR_n model directly: predict an
// app's cache access rate under a forced way allocation from an
// unpartitioned run, then actually enforce that allocation and measure.
func runAblCARn(ctx context.Context, sc Scale) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mix := workload.Mix{Names: []string{"bzip2", "mcf", "soplex", "h264ref"}}
	specs := mix.Specs()
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 64
	cfg.Cores = len(specs)

	// Pass 1: unpartitioned, record CAR_n predictions for app 0 from the
	// final measured quantum.
	sys, err := sim.New(cfg, specs)
	if err != nil {
		return nil, err
	}
	asm := core.NewASM()
	preds := make(map[int]float64)
	sys.AddQuantumListener(func(_ *sim.System, st *sim.QuantumStats) {
		asm.Estimate(st) // keep fallback state warm
		if st.Quantum != sc.WarmupQuanta+sc.MeasuredQuanta-1 {
			return
		}
		for _, n := range []int{2, 4, 8, 12, 16} {
			preds[n] = core.CARAtWays(st, 0, n)
		}
	})
	if err := sys.RunQuantaCtx(ctx, sc.TotalQuanta()); err != nil {
		return nil, fmt.Errorf("exp: abl-carn pass 1: %w", err)
	}

	t := &Table{
		ID:     "abl-carn",
		Title:  "Ablation: CAR_n prediction vs enforced allocation (Section 7.1)",
		Header: []string{"ways for bzip2", "predicted CAR", "measured CAR", "rel err"},
	}
	// Pass 2: enforce each allocation and measure the real CAR.
	for _, n := range []int{2, 4, 8, 12, 16} {
		alloc := spreadAllocation(n, len(specs), cfg.L2Ways)
		sys2, err := sim.New(cfg, specs)
		if err != nil {
			return nil, err
		}
		sys2.SetL2Partition(alloc)
		var accesses uint64
		sys2.AddQuantumListener(func(_ *sim.System, st *sim.QuantumStats) {
			if st.Quantum < sc.WarmupQuanta {
				return
			}
			accesses += st.Apps[0].L2Accesses
		})
		if err := sys2.RunQuantaCtx(ctx, sc.TotalQuanta()); err != nil {
			return nil, fmt.Errorf("exp: abl-carn pass 2 (%d ways): %w", n, err)
		}
		measured := float64(accesses) / float64(uint64(sc.MeasuredQuanta)*cfg.Quantum)
		rel := 0.0
		if measured > 0 {
			rel = (preds[n] - measured) / measured * 100
			if rel < 0 {
				rel = -rel
			}
		}
		t.AddRow(fmt.Sprint(n), f3(preds[n]*1000), f3(measured*1000), pct(rel))
	}
	t.AddNote("CAR in accesses per kilocycle; predictions come from the unpartitioned run's ATS way profile")
	t.AddNote("the paper argues this extension is straightforward for ASM and non-trivial for FST/PTCA (Section 7.1.1)")
	return t, nil
}

// spreadAllocation gives app 0 n ways and splits the rest evenly.
func spreadAllocation(n, apps, ways int) []int {
	alloc := make([]int, apps)
	alloc[0] = n
	rest := ways - n
	for i := 1; i < apps; i++ {
		alloc[i] = rest / (apps - 1)
	}
	for i := 1; i <= rest%(apps-1); i++ {
		alloc[i]++
	}
	return alloc
}

// runAblSTFM compares the full estimator lineup including the STFM-style
// memory-only per-request model, isolating what each modeling ingredient
// buys (per-request vs aggregate x memory-only vs memory+cache).
func runAblSTFM(ctx context.Context, sc Scale) (*Table, error) {
	mixes := workload.RandomMixes(suitePool(), 4, sc.Workloads, sc.Seed)
	cfg := sc.BaseConfig()
	cfg.ATSSampledSets = 0
	results := make([][]Sample, len(mixes))
	fails, cancelled := forEach(ctx, len(mixes),
		func(i int) string { return mixes[i].String() },
		sc.Telemetry,
		func(i int) error {
			c := cfg
			c.Seed = sc.Seed + uint64(i)*1000
			c.StreamSeed = sc.Seed
			s, err := RunAccuracy(ctx, c, mixes[i], func() []core.Estimator {
				return core.SanitizeAll([]core.Estimator{
					core.NewASM(), model.NewFST(), model.NewPTCA(),
					model.NewMISE(), model.NewSTFM(), model.NewRegression(),
				})
			}, sc)
			if err != nil {
				return err
			}
			results[i] = s
			return nil
		})
	var all []Sample
	completed := 0
	for _, s := range results {
		if s != nil {
			completed++
			all = append(all, s...)
		}
	}
	m := &Manifest{Total: len(mixes), Completed: completed, Failures: fails, Cancelled: cancelled}
	if completed == 0 && len(mixes) > 0 {
		if len(fails) > 0 {
			return nil, fmt.Errorf("exp: sweep produced no results: %w", fails[0])
		}
		return nil, fmt.Errorf("exp: sweep cancelled before any mix completed: %w", ctx.Err())
	}
	t := &Table{
		ID:     "abl-models",
		Title:  "Ablation: modeling ingredients (per-request vs aggregate, memory vs memory+cache)",
		Header: []string{"model", "accounting", "scope", "avg error"},
	}
	t.AddRow("STFM", "per-request", "memory", pct(MeanError(all, "STFM")))
	t.AddRow("REGR", "regression", "cache only", pct(MeanError(all, "REGR")))
	t.AddRow("FST", "per-request", "memory+cache", pct(MeanError(all, "FST")))
	t.AddRow("PTCA", "per-request", "memory+cache", pct(MeanError(all, "PTCA")))
	t.AddRow("MISE", "aggregate", "memory", pct(MeanError(all, "MISE")))
	t.AddRow("ASM", "aggregate", "memory+cache", pct(MeanError(all, "ASM")))
	attach(t, m)
	return t, nil
}
