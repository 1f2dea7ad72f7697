package sim

import (
	"testing"

	"asmsim/internal/cpu"
	"asmsim/internal/workload"
)

// replay is a cpu.InstrSource over a recorded instruction slice,
// wrapping at the end.
type replay struct {
	instrs []workload.Instr
	pos    int
}

func (r *replay) Next(out *workload.Instr) {
	*out = r.instrs[r.pos]
	r.pos = (r.pos + 1) % len(r.instrs)
}

// record captures n instructions from a generator.
func record(gen *workload.Generator, n int) []workload.Instr {
	out := make([]workload.Instr, n)
	for i := range out {
		gen.Next(&out[i])
	}
	return out
}

// TestTraceDrivenRunMatchesGenerator records each app's stream and
// replays it through NewWithSources: the replay-driven system must
// reproduce the generator-driven execution exactly (same retired counts),
// proving an external instruction source is a faithful substitute for
// live generation.
func TestTraceDrivenRunMatchesGenerator(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	specs := testSpecs(t, "bzip2", "libquantum")

	ref, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunQuanta(1)

	// Record comfortably more instructions than the reference retired.
	apps := make([]AppSource, len(specs))
	for i, sp := range specs {
		need := int(ref.Retired(i)) + 3*int(cfg.WindowSize)
		gen := workload.NewGenerator(sp, i, cfg.Seed)
		instrs := record(gen, need)
		apps[i] = AppSource{
			Name: sp.Name,
			New: func(int) cpu.InstrSource {
				return &replay{instrs: instrs}
			},
		}
	}

	replayed, err := NewWithSources(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	replayed.RunQuanta(1)

	for a := 0; a < cfg.Cores; a++ {
		if got, want := replayed.Retired(a), ref.Retired(a); got != want {
			t.Fatalf("app %d: trace-driven retired %d, generator-driven %d", a, got, want)
		}
	}
}

// TestTraceDrivenGroundTruth verifies the source-based slowdown tracker
// path works end-to-end.
func TestTraceDrivenGroundTruth(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	specs := testSpecs(t, "mcf", "h264ref")
	var apps []AppSource
	for i, sp := range specs {
		gen := workload.NewGenerator(sp, i, cfg.Seed)
		instrs := record(gen, 3_000_000)
		apps = append(apps, AppSource{
			Name: sp.Name,
			New:  func(int) cpu.InstrSource { return &replay{instrs: instrs} },
		})
	}
	sys, err := NewWithSources(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := NewSlowdownTrackerFromSources(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
		for a, sd := range tracker.ActualSlowdowns(st) {
			if sd < 1 || sd > 100 {
				t.Errorf("app %d slowdown %v", a, sd)
			}
		}
		checked = true
	})
	sys.RunQuanta(1)
	if !checked {
		t.Fatal("no quantum observed")
	}
}
