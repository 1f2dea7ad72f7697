// Command perfbench is the repository's benchmark. It runs one workload
// from a single process and prints, as the last line of standard output,
// one JSON object: whether the outputs checked out, the operations
// attempted and failed, and the metrics. An untraced run (-trace 0)
// reports the end-to-end metrics; a traced run (-trace 1) reports the
// per-layer metrics, from a CPU profile, an allocation profile, spans
// around the benchmark's calls into each layer and the simulator's own
// counters. BENCHMARK.json at the repository root lists the workloads
// and metrics; README.md in this directory says why each was chosen and
// which layer metric should move which end-to-end metric.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep-mixed --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up before the
// first unit of work; setup_s is the median over these and every later
// set-up in the run.
const setupRepeats = 3

// runLimit bounds one run, whatever -seconds says: a run must end
// within three minutes.
const runLimit = 170 * time.Second

// bench is one benchmark workload. setup builds fresh state for one
// unit of work; run performs the unit (traced when tr is non-nil),
// measuring only its timed part through a window, then checks its
// outputs; teardown releases what setup built.
type bench interface {
	setup(seed uint64, dir string) error
	run(ctx context.Context, tr *tracer) (*unit, error)
	teardown()
	// nominalOps is the number of operations one unit is designed to
	// time; it fixes which tail percentile the workload reports.
	nominalOps() int
}

// workloads maps workload names to constructors.
var workloads = map[string]func() bench{
	"sweep-mixed":    newSweepMixed,
	"sweep-mem":      newSweepMem,
	"serve-jobs":     newServeJobs,
	"cluster-rounds": newClusterRounds,
}

// unit is the outcome of one unit of work.
type unit struct {
	win       *window
	ops       []float64 // per-operation latency, seconds
	attempted int
	failed    int
	asmErr    float64 // mean ASM error, percent
	digest    string  // hash of the simulated results
	// simMcycles is the simulated work of the timed part, in millions of
	// cycles (shared runs plus alone-run extensions).
	simMcycles float64
	// layer holds the per-layer values the workload measured itself.
	layer map[string]float64
	// problems lists failed output checks, one line each.
	problems []string
	// valid is false when the measurement itself cannot be trusted (an
	// open-loop generator that ran late).
	valid bool
	// overheadBasis is the time tracing overhead is judged on: wall time,
	// or the median request latency for the open-loop service.
	overheadBasis float64
}

func (u *unit) problem(format string, args ...any) {
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
	u.failed++
}

// window measures the timed part of a unit: wall time, process CPU time,
// allocation counters and, when traced, CPU and allocation profiles.
type window struct {
	traced bool
	t0     time.Time
	cpu0   float64
	ms0    runtime.MemStats
	prof   bytes.Buffer
	alloc0 []byte

	wall, cpu   float64
	mallocs     uint64
	allocBytes  uint64
	gcs         uint32
	cpuFolded   map[string]int64
	allocFolded map[string]int64
	profileErr  error
}

// openWindow starts measuring.
func openWindow(traced bool) (*window, error) {
	w := &window{traced: traced}
	if traced {
		var buf bytes.Buffer
		if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
			return nil, fmt.Errorf("alloc profile: %w", err)
		}
		w.alloc0 = buf.Bytes()
		if err := pprof.StartCPUProfile(&w.prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = processCPU()
	w.t0 = time.Now()
	return w, nil
}

// close stops measuring and folds the profiles.
func (w *window) close() {
	w.wall = time.Since(w.t0).Seconds()
	w.cpu = processCPU() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - w.ms0.Mallocs
	w.allocBytes = ms.TotalAlloc - w.ms0.TotalAlloc
	w.gcs = ms.NumGC - w.ms0.NumGC
	if !w.traced {
		return
	}
	pprof.StopCPUProfile()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		w.profileErr = fmt.Errorf("alloc profile: %w", err)
		return
	}
	cpuSamples, err := parseProfile(w.prof.Bytes(), "cpu")
	if err != nil {
		w.profileErr = err
		return
	}
	after, err := parseProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		w.profileErr = err
		return
	}
	before, err := parseProfile(w.alloc0, "alloc_space")
	if err != nil {
		w.profileErr = err
		return
	}
	w.cpuFolded = foldByLayer(cpuSamples)
	w.allocFolded = subFolded(foldByLayer(after), foldByLayer(before))
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"asm_error_pct", "%"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer lists the traced run's metrics with their units. Every
// workload reports every one; a layer a workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"workload.self_share", "share"},
	{"rng.self_share", "share"},
	{"cpu.self_share", "share"},
	{"cache.self_share", "share"},
	{"dram.self_share", "share"},
	{"sim.tick_self_share", "share"},
	{"sim.skip_self_share", "share"},
	{"sim.alone_self_share", "share"},
	{"core.self_share", "share"},
	{"model.self_share", "share"},
	{"exp.self_share", "share"},
	{"serve.self_share", "share"},
	{"cluster.self_share", "share"},
	{"telemetry.self_share", "share"},
	{"runtime.gc_self_share", "share"},
	{"runtime.malloc_self_share", "share"},
	{"runtime.map_self_share", "share"},
	{"cache.alloc_share", "share"},
	{"dram.alloc_share", "share"},
	{"sim.alloc_share", "share"},
	{"cpu.instr_retired_m", "Minstr"},
	{"cpu.mem_stall_frac", "share"},
	{"cache.l2_mpki", "1/kinstr"},
	{"cache.ats_probes_m", "M"},
	{"dram.misses_m", "M"},
	{"dram.avg_miss_latency_cyc", "cycles"},
	{"sim.mcycles_per_cpu_s", "Mcycles/s"},
	{"sim.skip_cycle_frac", "share"},
	{"sim.skip_windows", "count"},
	{"sim.forced_wakes", "count"},
	{"sim.alone_points_m", "M"},
	{"sim.alone_extended_mcycles", "Mcycles"},
	{"sim.alone_saved_mcycles", "Mcycles"},
	{"runtime.mallocs_per_mcycle", "1/Mcycle"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"exp.mix_s_p50", "s"},
	{"exp.mix_s_max", "s"},
	{"exp.worker_util_pct", "%"},
	{"est.asm_us_p50", "us"},
	{"est.fst_us_p50", "us"},
	{"est.ptca_us_p50", "us"},
	{"est.asm_clamp_frac", "share"},
	{"est.ptca_clamp_frac", "share"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.attempt_ms_p50", "ms"},
	{"serve.worker_busy_pct", "%"},
	{"serve.journal_fsync_ms_p50", "ms"},
	{"serve.journal_fsync_ms_p99", "ms"},
	{"serve.hit_ratio", "share"},
	{"serve.dedup_hits", "count"},
	{"serve.shed", "count"},
	{"serve.jobs_retained", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.hit_count", "count"},
	{"serve.miss_count", "count"},
	{"cluster.evaluate_ms_p50", "ms"},
	{"cluster.rebalance_us_p50", "us"},
	{"cluster.migrations", "count"},
	{"cluster.worst_slowdown", "x"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.backlog_end", "count"},
	{"op.count", "count"},
	{"op.tail_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// profileLayers maps folded CPU-profile layers to their share metric.
var profileLayers = map[string]string{
	"workload":       "workload.self_share",
	"rng":            "rng.self_share",
	"cpu":            "cpu.self_share",
	"cache":          "cache.self_share",
	"dram":           "dram.self_share",
	"sim.tick":       "sim.tick_self_share",
	"sim.skip":       "sim.skip_self_share",
	"sim.alone":      "sim.alone_self_share",
	"core":           "core.self_share",
	"model":          "model.self_share",
	"exp":            "exp.self_share",
	"serve":          "serve.self_share",
	"cluster":        "cluster.self_share",
	"telemetry":      "telemetry.self_share",
	"runtime.gc":     "runtime.gc_self_share",
	"runtime.malloc": "runtime.malloc_self_share",
	"runtime.map":    "runtime.map_self_share",
}

// meta stamps every result record with where it was measured.
type meta struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Binary     string `json:"binary_sha256"`
	Digest     string `json:"digest,omitempty"`
	Time       string `json:"time"`
}

func collectMeta() meta {
	m := meta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				m.Commit += "+dirty"
			}
		}
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				m.Binary = hex.EncodeToString(h.Sum(nil))[:16]
			}
			f.Close()
		}
	}
	return m
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: sweep-mixed, sweep-mem, serve-jobs or cluster-rounds")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "how long the untraced run measures")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		outDir  = flag.String("out", ".bench_build/perfbench-out", "directory for records, digests, spans and profiles")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	for _, d := range []string{"records", "digests", "traces", "tmp"} {
		if err := os.MkdirAll(filepath.Join(*outDir, d), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	m := collectMeta()
	m.Workload, m.Seed, m.Seconds, m.Trace = *name, *seed, *seconds, *trace
	res, digest, err := execute(ctx, mk(), m, time.Duration(*seconds)*time.Second, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m.Digest = digest
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metaLine, _ := json.Marshal(map[string]any{"meta": m})
	record := fmt.Sprintf("%s\n%s\n", metaLine, line)
	stamp := fmt.Sprintf("%s-%s-seed%d-trace%d", time.Now().UTC().Format("20060102T150405.000000"), m.Workload, m.Seed, m.Trace)
	if err := os.WriteFile(filepath.Join(*outDir, "records", stamp+".json"), []byte(record), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stdout.WriteString(record); err != nil {
		return 1
	}
	return 0
}

// execute performs one run: the set-ups, the units of work, the output
// checks, and the metrics. It returns the result and the run's digest.
func execute(ctx context.Context, w bench, m meta, budget time.Duration, outDir string) (*result, string, error) {
	tmp := filepath.Join(outDir, "tmp")
	var setups []float64
	setup := func() error {
		t0 := time.Now()
		if err := w.setup(m.Seed, tmp); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < setupRepeats-1; i++ {
		if err := setup(); err != nil {
			return nil, "", err
		}
		w.teardown()
	}
	if err := setup(); err != nil {
		return nil, "", err
	}

	var units []*unit
	var traced *unit
	runUnit := func(tr *tracer) (*unit, time.Duration, error) {
		t0 := time.Now()
		u, err := w.run(ctx, tr)
		w.teardown()
		if err != nil {
			return nil, 0, err
		}
		if u.win.profileErr != nil {
			return nil, 0, u.win.profileErr
		}
		return u, time.Since(t0), nil
	}
	start := time.Now()
	if m.Trace == 0 {
		for {
			u, took, err := runUnit(nil)
			if err != nil {
				return nil, "", err
			}
			units = append(units, u)
			if time.Since(start)+took > budget {
				break
			}
			if err := setup(); err != nil {
				return nil, "", err
			}
		}
	} else {
		// The traced run times one untraced unit and then one traced unit
		// of identical work: the pair gives the tracing overhead, and
		// their digests must agree.
		ref, _, err := runUnit(nil)
		if err != nil {
			return nil, "", err
		}
		if err := setup(); err != nil {
			return nil, "", err
		}
		tr := newTracer()
		traced, _, err = runUnit(tr)
		if err != nil {
			return nil, "", err
		}
		units = []*unit{ref, traced}
		dir := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d", m.Workload, m.Seed))
		if err := writeTrace(dir, tr, traced.win); err != nil {
			return nil, "", err
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i, u := range units {
		res.Attempted += u.attempted
		res.Failed += u.failed
		for _, p := range u.problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
		}
		if !u.valid {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: measurement invalid: the open-loop generator ran late or its backlog grew")
		}
		if i > 0 && u.digest != units[0].digest {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: unit %d digest %s differs from unit 0 digest %s\n", i, u.digest, units[0].digest)
		}
		if fw := u.layer["sim.forced_wakes"]; fw != 0 {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %v forced wakes\n", fw)
		}
	}
	digest := units[0].digest
	if ok, prev := checkDigest(outDir, m, digest); !ok {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: digest %s differs from %s recorded by an earlier run of this binary and seed\n", digest, prev)
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if m.Trace == 0 {
		var walls, cpus, ops []float64
		for _, u := range units {
			walls = append(walls, u.win.wall)
			cpus = append(cpus, u.win.cpu)
			ops = append(ops, u.ops...)
		}
		vals := map[string]float64{
			"setup_s":       median(setups),
			"wall_s":        median(walls),
			"cpu_s":         median(cpus),
			"peak_rss_mb":   peakRSSMB(),
			"asm_error_pct": units[0].asmErr,
			"op_p50_ms":     1000 * quantile(ops, 0.5),
			"op_tail_ms":    1000 * quantile(ops, tailQuantile(w.nominalOps())),
		}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
		}
		return res, digest, nil
	}

	vals := layerValues(traced)
	vals["op.count"] = float64(len(traced.ops))
	vals["op.tail_pct"] = 100 * tailQuantile(w.nominalOps())
	vals["trace.overhead_pct"] = 100 * (ratio(traced.overheadBasis, units[0].overheadBasis) - 1)
	for _, e := range perLayer {
		res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
	}
	return res, digest, nil
}

// layerValues assembles the per-layer metrics of a traced unit: the
// profile shares, the allocation-derived runtime counts, and whatever
// the workload measured itself.
func layerValues(u *unit) map[string]float64 {
	vals := map[string]float64{}
	for layer, share := range shares(u.win.cpuFolded) {
		if name, ok := profileLayers[layer]; ok {
			vals[name] = share
		}
	}
	alloc := shares(u.win.allocFolded)
	vals["cache.alloc_share"] = alloc["cache"]
	vals["dram.alloc_share"] = alloc["dram"]
	vals["sim.alloc_share"] = alloc["sim.tick"] + alloc["sim.skip"] + alloc["sim.alone"]
	vals["runtime.alloc_mb"] = float64(u.win.allocBytes) / (1 << 20)
	vals["runtime.gc_cycles"] = float64(u.win.gcs)
	vals["runtime.mallocs_per_mcycle"] = ratio(float64(u.win.mallocs), u.simMcycles)
	vals["sim.mcycles_per_cpu_s"] = ratio(u.simMcycles, u.win.cpu)
	for k, v := range u.layer {
		vals[k] = v
	}
	return vals
}

// writeTrace stores the traced unit's spans and folded profiles.
func writeTrace(dir string, tr *tracer, win *window) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.folded.txt"), []byte(formatFolded(win.cpuFolded)), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "alloc.folded.txt"), []byte(formatFolded(win.allocFolded)), 0o644)
}

// checkDigest compares the run's digest with the one an earlier run of
// the same binary, workload and seed recorded, recording it when none
// exists. It reports whether they agree and the earlier digest.
func checkDigest(outDir string, m meta, digest string) (bool, string) {
	path := filepath.Join(outDir, "digests", fmt.Sprintf("%s-%s-seed%d.txt", m.Binary, m.Workload, m.Seed))
	if b, err := os.ReadFile(path); err == nil {
		prev := strings.TrimSpace(string(b))
		return prev == digest, prev
	}
	// A lost write only skips a later comparison; it cannot fail this run.
	_ = os.WriteFile(path, []byte(digest+"\n"), 0o644)
	return true, digest
}

// digester hashes simulated results into a stable digest: lines are
// sorted first, so results gathered in a nondeterministic order (sweep
// workers finishing out of order) hash identically.
type digester struct {
	lines []string
}

func (d *digester) add(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

// bits renders a float's exact bit pattern.
func bits(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }

// vecBits renders a slice of floats as bits, in order.
func vecBits(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteString(bits(x))
		b.WriteByte(',')
	}
	return b.String()
}

// estBits renders estimates as name=bits pairs in name order.
func estBits(est map[string]float64) string {
	names := make([]string, 0, len(est))
	for n := range est {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%s,", n, bits(est[n]))
	}
	return b.String()
}

func (d *digester) sum() string {
	sort.Strings(d.lines)
	h := sha256.New()
	for _, l := range d.lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
