package sim

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"asmsim/internal/telemetry"
	"asmsim/internal/workload"
)

func mustSpecs(t testing.TB, names []string) []workload.Spec {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %q", n)
		}
		specs[i] = sp
	}
	return specs
}

// TestSlowdownTrackerSharedEquivalence: the cached tracker must produce
// bit-identical ActualSlowdowns to the private-replica tracker across a
// sweep of mixes that reuse benchmarks — including across configs that
// differ only in knobs the curve key normalizes away (per-mix Seed,
// Quantum, ATS sampling).
func TestSlowdownTrackerSharedEquivalence(t *testing.T) {
	cache := NewAloneCurveCache()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg.Scope("sim"))
	mixes := [][]string{
		{"mcf", "libquantum", "bzip2", "h264ref"},
		{"bzip2", "h264ref", "gcc", "mcf"},
	}
	for mi, names := range mixes {
		cfg := DefaultConfig()
		cfg.Quantum = 120_000
		cfg.ATSSampledSets = 64
		cfg.Seed = 7 + uint64(mi)*1000 // per-mix seed, as the sweeps set it
		cfg.StreamSeed = 7
		if mi == 1 {
			cfg.Quantum = 60_000 // normalized out of the curve key
		}
		specs := mustSpecs(t, names)
		sys, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := NewSlowdownTrackerShared(cfg, specs, cache)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewSlowdownTracker(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		sys.AddQuantumListener(func(_ *System, st *QuantumStats) {
			want := plain.ActualSlowdowns(st)
			got := cached.ActualSlowdowns(st)
			for a := range want {
				if got[a] != want[a] {
					t.Fatalf("mix %d app %d (%s) quantum %d: cached %v != uncached %v",
						mi, a, names[a], st.Quantum, got[a], want[a])
				}
			}
		})
		sys.RunQuanta(3)
	}
	// 5 distinct benchmarks across both mixes; the repeats (and the
	// second mix's different Quantum/Seed) must all hit shared entries.
	if cache.Len() != 5 {
		t.Fatalf("cache holds %d curves, want 5 (one per distinct benchmark)", cache.Len())
	}
	if cache.SavedCycles() == 0 {
		t.Fatal("repeated benchmarks saved no cycles")
	}
	hits := false
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "sim.alone_cache.") && m.Value > 0 {
			hits = true
		}
	}
	if !hits {
		t.Fatal("telemetry recorded no alone_cache activity")
	}
}

// TestAloneCurveConcurrentExtension: many goroutines extend and query the
// same curve concurrently (run under -race); every answer must equal the
// private replica's, regardless of interleaving.
func TestAloneCurveConcurrentExtension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc"}), cfg.streamSeed())
	prof, err := NewAloneProfileFromSource(cfg, apps[0])
	if err != nil {
		t.Fatal(err)
	}
	const step, nq = 3_000, 40
	want := make([]uint64, nq)
	for i := range want {
		want[i] = prof.CyclesAt(uint64(i+1) * step)
	}

	cache := NewAloneCurveCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cu, err := cache.Cursor(cfg, apps[0])
			if err != nil {
				t.Error(err)
				return
			}
			// Different start/stride per goroutine: cursors race to extend
			// the shared curve while others answer from the covered prefix.
			for i := g % 4; i < nq; i += 1 + g%3 {
				m := uint64(i+1) * step
				if got := cu.CyclesAt(m); got != want[i] {
					t.Errorf("goroutine %d milestone %d: got %d want %d", g, m, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Len() != 1 {
		t.Fatalf("one stream produced %d curves", cache.Len())
	}
	if cache.Points() == 0 {
		t.Fatal("curve recorded no points")
	}
}

// TestAloneCursorZeroMilestone: milestone 0 answers cycle 0 without
// simulating, matching the uncached replica.
func TestAloneCursorZeroMilestone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 100_000
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc"}), cfg.streamSeed())
	cache := NewAloneCurveCache()
	cu, err := cache.Cursor(cfg, apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if c := cu.CyclesAt(0); c != 0 {
		t.Fatalf("CyclesAt(0) = %d", c)
	}
	if cache.Points() != 0 {
		t.Fatal("zero milestone must not tick the replica")
	}
}

// TestAloneCacheKeylessSource: a source without a stream key cannot be
// cached; the shared tracker constructor must fall back to a private
// replica rather than fail.
func TestAloneCacheKeylessSource(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Quantum = 50_000
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc"}), cfg.streamSeed())
	apps[0].Key = ""
	cache := NewAloneCurveCache()
	if _, err := cache.Cursor(cfg, apps[0]); err == nil {
		t.Fatal("keyless source must not be cacheable")
	}
	tr, err := NewSlowdownTrackerFromSourcesShared(cfg, apps, cache)
	if err != nil {
		t.Fatal(err)
	}
	if tr.cursors[0] != nil || tr.profiles[0] == nil {
		t.Fatal("keyless source must fall back to a private replica")
	}
	if cache.Len() != 0 {
		t.Fatal("fallback must not populate the cache")
	}
}

func TestConfigFingerprint(t *testing.T) {
	a := DefaultConfig()
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs must have equal fingerprints")
	}
	b.L2Bytes *= 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("L2 capacity must be part of the fingerprint")
	}
	// Defaults resolve: the zero backpressure equals the explicit default.
	c := a
	c.WritebackBackpressure = defaultWritebackBackpressure
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("default writeback backpressure must resolve in the fingerprint")
	}

	// The curve key normalizes everything a solo run cannot observe...
	d := a
	d.Cores = 16
	d.Quantum = 250_000
	d.ATSSampledSets = 64
	d.Seed = 999
	d.StreamSeed = a.Seed
	if a.aloneCurveConfig().Fingerprint() != d.aloneCurveConfig().Fingerprint() {
		t.Fatal("solo-invisible knobs must normalize out of the curve key")
	}
	// ...and keeps everything timing-relevant.
	e := a
	e.Channels = 2
	if a.aloneCurveConfig().Fingerprint() == e.aloneCurveConfig().Fingerprint() {
		t.Fatal("channel count must stay in the curve key")
	}
}

func TestWritebackBackpressureValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WritebackBackpressure = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative backpressure accepted")
	}
	cfg.WritebackBackpressure = 8
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.wbBackpressure(); got != 8 {
		t.Fatalf("explicit backpressure %d", got)
	}
	cfg.WritebackBackpressure = 0
	if got := cfg.wbBackpressure(); got != defaultWritebackBackpressure {
		t.Fatalf("zero backpressure resolved to %d", got)
	}
}

// refPoint is one point of the plain reference curve the encoded curve
// is checked against.
type refPoint struct{ instr, cycle uint64 }

// refLookup is the reference answer: the cycle of the first point with
// instr >= n.
func refLookup(ref []refPoint, n uint64) uint64 {
	i := sort.Search(len(ref), func(i int) bool { return ref[i].instr >= n })
	return ref[i].cycle
}

// encodedCurve appends ref's points to a bare curve (no replica).
func encodedCurve(ref []refPoint) *aloneCurve {
	c := &aloneCurve{cache: NewAloneCurveCache()}
	for _, p := range ref {
		c.append(p.instr, p.cycle)
	}
	return c
}

// curveFromDeltas builds a reference curve from (Δinstr, Δcycle) pairs,
// starting at (0, 0).
func curveFromDeltas(deltas [][2]uint64) []refPoint {
	ref := make([]refPoint, 0, len(deltas))
	var p refPoint
	for _, d := range deltas {
		p.instr += d[0]
		p.cycle += d[1]
		ref = append(ref, p)
	}
	return ref
}

// TestAloneCurveEncodingDifferential: the delta-encoded curve must answer
// every lookup exactly as a plain sorted point array does, across deltas
// at the one-byte limits, retire widths above 4, and instruction counts
// and cycle gaps past 2^32.
func TestAloneCurveEncodingDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pick := func(xs []uint64) uint64 { return xs[r.Intn(len(xs))] }
	instrDeltas := []uint64{1, 2, 3, 4, 5, 6, 8, 127, 128}
	cycleDeltas := []uint64{1, 2, 62, 63, 64, 65, 127, 128, 300, 1 << 14}

	// Every (Δinstr, Δcycle) pair around the one-byte limits, in order,
	// then random ones: enough points for several checkpoints.
	var limits [][2]uint64
	for _, di := range instrDeltas {
		for _, dc := range cycleDeltas {
			limits = append(limits, [2]uint64{di, dc})
		}
	}
	for len(limits) < 5*aloneStride+7 {
		limits = append(limits, [2]uint64{pick(instrDeltas), pick(cycleDeltas)})
	}

	// A real-looking retire stream (mostly one-byte points) that crosses
	// 2^32 in both instructions and cycles, with gaps wider than 2^32.
	var wide [][2]uint64
	for i := 0; i < 4*aloneStride; i++ {
		d := [2]uint64{1 + uint64(r.Intn(4)), 1 + uint64(r.Intn(40))}
		switch i {
		case 100:
			d = [2]uint64{1<<32 - 3, 5} // instruction count crosses 2^32
		case 200:
			d = [2]uint64{2, 1<<32 + 9} // cycle gap beyond 2^32
		case 300:
			d = [2]uint64{1 << 40, 1 << 41}
		}
		wide = append(wide, d)
	}

	for _, tc := range []struct {
		name   string
		deltas [][2]uint64
	}{
		{"one-byte limits", limits},
		{"past 2^32", wide},
		{"single point", [][2]uint64{{3, 70}}},
		{"exactly one stride", limits[:aloneStride]},
		{"one stride and one", limits[:aloneStride+1]},
	} {
		ref := curveFromDeltas(tc.deltas)
		c := encodedCurve(ref)
		last := ref[len(ref)-1].instr
		check := func(n uint64) {
			if n == 0 || n > last {
				return
			}
			if got, want := c.lookup(n), refLookup(ref, n); got != want {
				t.Fatalf("%s: lookup(%d) = %d, want %d", tc.name, n, got, want)
			}
		}
		if last <= 1<<16 {
			for n := uint64(1); n <= last; n++ {
				check(n)
			}
		}
		// At and around every point, so every checkpoint too.
		for _, p := range ref {
			check(p.instr - 1)
			check(p.instr)
			check(p.instr + 1)
		}
		if !c.covered(last-1) || !c.covered(last) || c.covered(last+1) {
			t.Fatalf("%s: covered wrong around last point %d", tc.name, last)
		}
		if c.n != len(ref) || len(c.index) != (len(ref)+aloneStride-1)/aloneStride {
			t.Fatalf("%s: %d points, %d checkpoints for %d reference points",
				tc.name, c.n, len(c.index), len(ref))
		}
	}
	if c := encodedCurve(nil); c.covered(1) {
		t.Fatal("empty curve covers milestone 1")
	}
}

// TestAloneCurveBytesPerPoint is the memory gate: real curves extended to
// 3M instructions must average at most 2 bytes per recorded point.
func TestAloneCurveBytesPerPoint(t *testing.T) {
	cfg := DefaultConfig()
	apps := SourcesFromSpecs(mustSpecs(t, []string{"gcc", "mcf", "libquantum"}), cfg.streamSeed())
	cache := NewAloneCurveCache()
	reg := telemetry.NewRegistry()
	cache.SetTelemetry(reg)
	for _, app := range apps {
		cu, err := cache.Cursor(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		cu.CyclesAt(3_000_000)
	}
	points, bytes := cache.Points(), cache.Bytes()
	if points == 0 {
		t.Fatal("no points recorded")
	}
	if bpp := float64(bytes) / float64(points); bpp > 2.0 {
		t.Fatalf("%d bytes for %d points = %.2f B/point, want <= 2.0", bytes, points, bpp)
	}
	t.Logf("%d points, %d bytes: %.2f B/point", points, bytes, float64(bytes)/float64(points))
	gauge := false
	for _, m := range reg.Snapshot() {
		if m.Name == "alone_cache.bytes" {
			gauge = true
			if int64(m.Value) != bytes {
				t.Fatalf("alone_cache.bytes gauge %v, want %d", m.Value, bytes)
			}
		}
	}
	if !gauge {
		t.Fatal("no alone_cache.bytes gauge published")
	}
}
