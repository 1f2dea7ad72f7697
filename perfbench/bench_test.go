package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"asmsim/internal/exp"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {10, 0}, {20, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9},
		{300, 0.9}, {1347, 0.9}, {10000, 0.9},
	} {
		q := tailQuantile(tc.n)
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
			continue
		}
		if q == 0 {
			continue
		}
		if b := beyond(tc.n, q); b < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond, want >= %d", tc.n, 100*q, b, minBeyond)
		}
		// The next rung up the ladder must leave fewer than ten.
		for i, l := range tailLadder {
			if l == q && i > 0 && beyond(tc.n, tailLadder[i-1]) >= minBeyond {
				t.Errorf("n=%d: p%v also leaves ten beyond; p%v is not the highest", tc.n, 100*tailLadder[i-1], 100*q)
			}
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestLayerOfFoldsByPackage(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	for _, tc := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("asmsim/internal/cache.(*Cache).Lookup", "/src/internal/cache/cache.go")}, "cache"},
		{[]frame{f("asmsim/internal/dram.(*Controller).Tick", "/src/internal/dram/controller.go")}, "dram"},
		{[]frame{f("asmsim/internal/workload.(*Generator).Next", "/src/internal/workload/generator.go")}, "workload"},
		{[]frame{f("asmsim/internal/rng.(*Stream).Uint64", "/src/internal/rng/rng.go")}, "rng"},
		{[]frame{f("asmsim/internal/sim.(*System).Tick", "/src/internal/sim/system.go")}, "sim.tick"},
		{[]frame{f("asmsim/internal/sim.(*System).skipAhead", "/src/internal/sim/system.go")}, "sim.skip"},
		{[]frame{f("asmsim/internal/sim.(*aloneCurve).cyclesAt", "/src/internal/sim/alonecache.go")}, "sim.alone"},
		{[]frame{f("asmsim/internal/sim.(*SlowdownTracker).ActualSlowdowns", "/src/internal/sim/alone.go")}, "sim.alone"},
		{[]frame{f("asmsim/internal/dash.(*Broadcaster).Publish", "/src/internal/dash/broadcast.go")}, "telemetry"},
		{[]frame{f("asmsim/internal/evtrace.(*Tracer).Span", "/src/internal/evtrace/evtrace.go")}, "telemetry"},
		{[]frame{f("asmsim/internal/model.(*FST).Estimate", "/src/internal/model/baselines.go")}, "model"},
		{[]frame{f("runtime.mallocgc", ""), f("asmsim/internal/cache.(*MSHR).Allocate", "")}, "runtime.malloc"},
		{[]frame{f("runtime.memclrNoHeapPointers", ""), f("runtime.mallocgc", "")}, "runtime.malloc"},
		{[]frame{f("runtime.scanobject", ""), f("runtime.gcDrain", ""), f("runtime.gcBgMarkWorker", "")}, "runtime.gc"},
		{[]frame{f("runtime.scanobject", ""), f("runtime.gcAssistAlloc", ""), f("runtime.mallocgc", "")}, "runtime.gc"},
		{[]frame{f("internal/runtime/maps.(*Map).getWithKeySmall", ""), f("asmsim/internal/cache.(*MSHR).Merge", "")}, "runtime.map"},
		{[]frame{f("runtime.mapaccess2_fast64", "")}, "runtime.map"},
		{[]frame{f("runtime.futex", "")}, "runtime.other"},
		{[]frame{f("encoding/json.(*decodeState).object", "")}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

var sink [][]byte

//go:noinline
func allocForTest() {
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
}

func TestParseProfileFindsAllocatingFunction(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocForTest()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var found int64
	for _, s := range samples {
		for _, fr := range s.stack {
			if fr.fn == "asmsim/perfbench.allocForTest" {
				found += s.value
				break
			}
		}
	}
	if found < 64*(64<<10) {
		t.Errorf("profile attributes %d bytes to allocForTest, want >= %d", found, 64*(64<<10))
	}
	if _, err := parseProfile(buf.Bytes(), "no_such_type"); err == nil {
		t.Error("parseProfile accepted a sample type the profile lacks")
	}
	if _, err := parseProfile([]byte("not gzip"), "alloc_space"); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestFoldedSharesAndDifference(t *testing.T) {
	after := map[string]int64{"cache": 30, "dram": 10, "sim.tick": 5}
	before := map[string]int64{"cache": 10, "dram": 10}
	d := subFolded(after, before)
	if len(d) != 2 || d["cache"] != 20 || d["sim.tick"] != 5 {
		t.Fatalf("subFolded = %v", d)
	}
	sh := shares(d)
	if math.Abs(sh["cache"]-0.8) > 1e-12 || math.Abs(sh["sim.tick"]-0.2) > 1e-12 {
		t.Errorf("shares = %v", sh)
	}
}

func TestDigestIsOrderFreeAndBitExact(t *testing.T) {
	samples := []exp.Sample{
		{Bench: "mcf", App: 0, Quantum: 1, Actual: 2.5, Est: map[string]float64{"ASM": 2.4, "FST": 3.1}},
		{Bench: "lbm", App: 1, Quantum: 1, Actual: 1.25, Est: map[string]float64{"FST": 1.5, "ASM": 1.2}},
		{Bench: "milc", App: 2, Quantum: 1, Actual: 4, Est: map[string]float64{"ASM": 3.9}},
	}
	mixes := []string{"a", "a", "b"}
	want := sampleDigest(samples, mixes)
	for i := 0; i < 5; i++ {
		if got := sampleDigest(samples, mixes); got != want {
			t.Fatalf("digest changed between calls: %s vs %s", got, want)
		}
	}
	rev := []exp.Sample{samples[2], samples[0], samples[1]}
	if got := sampleDigest(rev, []string{"b", "a", "a"}); got != want {
		t.Errorf("digest depends on sample order: %s vs %s", got, want)
	}
	nudged := append([]exp.Sample(nil), samples...)
	nudged[1].Actual = math.Nextafter(1.25, 2)
	if got := sampleDigest(nudged, mixes); got == want {
		t.Error("digest missed a one-ulp change in an actual slowdown")
	}
	moved := append([]exp.Sample(nil), samples...)
	moved[0].Est = map[string]float64{"ASM": 2.4, "FST": math.Nextafter(3.1, 0)}
	if got := sampleDigest(moved, mixes); got == want {
		t.Error("digest missed a one-ulp change in an estimate")
	}
}

func TestCheckDigestComparesAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir+"/digests", 0o755); err != nil {
		t.Fatal(err)
	}
	m := meta{Binary: "b1", Workload: "sweep-mem", Seed: 7}
	if ok, _ := checkDigest(dir, m, "aaaa"); !ok {
		t.Fatal("first digest reported as a mismatch")
	}
	if ok, _ := checkDigest(dir, m, "aaaa"); !ok {
		t.Error("repeated digest reported as a mismatch")
	}
	if ok, prev := checkDigest(dir, m, "bbbb"); ok || prev != "aaaa" {
		t.Errorf("changed digest: ok=%v prev=%q, want a mismatch against aaaa", ok, prev)
	}
	m.Binary = "b2"
	if ok, _ := checkDigest(dir, m, "bbbb"); !ok {
		t.Error("another binary's digest compared against the first binary's")
	}
}

func TestScheduleIsSeededOpenLoopPoisson(t *testing.T) {
	const dur = 200 * time.Second
	cat, arr := makeSchedule(3, 12, dur, 60, 10, 4)
	cat2, arr2 := makeSchedule(3, 12, dur, 60, 10, 4)
	if len(arr) != len(arr2) || len(cat) != len(cat2) {
		t.Fatal("same seed gave different schedules")
	}
	for i := range arr {
		if arr[i] != arr2[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	if _, other := makeSchedule(4, 12, dur, 60, 10, 4); len(other) == len(arr) && other[0] == arr[0] {
		t.Error("another seed gave the same schedule")
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i].at < arr[j].at }) {
		t.Error("arrivals are not in due order")
	}
	inCat := map[uint64]bool{}
	for _, s := range cat {
		inCat[s] = true
	}
	if len(inCat) != 12 {
		t.Errorf("catalogue has %d distinct specs, want 12", len(inCat))
	}
	count := map[int]int{}
	missAt := map[uint64]time.Duration{}
	sinceMiss, maxRun := 0, 0
	for _, a := range arr {
		count[a.kind]++
		if a.at < 0 || a.at >= dur+serveDupDelay {
			t.Fatalf("arrival at %v outside the stream", a.at)
		}
		switch a.kind {
		case kindHit:
			if !inCat[a.spec] {
				t.Fatalf("hit on spec %d outside the catalogue", a.spec)
			}
			sinceMiss++
			maxRun = max(maxRun, sinceMiss)
		case kindMiss:
			if inCat[a.spec] {
				t.Fatalf("miss on catalogue spec %d", a.spec)
			}
			if _, dup := missAt[a.spec]; dup {
				t.Fatalf("spec %d missed twice", a.spec)
			}
			missAt[a.spec] = a.at
			sinceMiss = 0
		case kindDup:
			at, ok := missAt[a.spec]
			if !ok || a.at-at != serveDupDelay {
				t.Fatalf("duplicate of spec %d does not follow its miss by %v", a.spec, serveDupDelay)
			}
		}
	}
	// One miss in every ten arrivals, so never more than 18 hits in a row.
	if maxRun > 18 {
		t.Errorf("%d hits in a row, want at most 18", maxRun)
	}
	arrivals := count[kindHit] + count[kindMiss]
	if want := (arrivals + 9) / 10; count[kindMiss] != want && count[kindMiss] != want-1 {
		t.Errorf("%d misses in %d arrivals, want one per ten", count[kindMiss], arrivals)
	}
	if count[kindDup] != count[kindMiss]/4 {
		t.Errorf("%d duplicates for %d misses, want one per four", count[kindDup], count[kindMiss])
	}
	// The arrival count is Poisson: within five standard deviations.
	if want := 60 * dur.Seconds(); math.Abs(float64(arrivals)-want) > 5*math.Sqrt(want) {
		t.Errorf("%d arrivals, want about %.0f", arrivals, want)
	}
}

// The metric and workload names in code must be the ones BENCHMARK.json
// declares, in the same order, with the same units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	check := func(kind string, doc []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(doc) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(doc), len(code))
			return
		}
		for i := range doc {
			if doc[i].Name != code[i].name || doc[i].Unit != code[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, doc[i].Name, doc[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for layer, name := range profileLayers {
		found := false
		for _, m := range perLayer {
			found = found || m.name == name
		}
		if !found {
			t.Errorf("profile layer %s maps to unlisted metric %s", layer, name)
		}
	}
}
