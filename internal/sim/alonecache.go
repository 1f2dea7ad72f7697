package sim

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"asmsim/internal/telemetry"
)

// AloneCurveCache is a process-wide, concurrency-safe cache of alone-run
// ground-truth curves. A curve is the monotone step function
//
//	instructions retired -> first cycle at which the alone run has
//	retired at least that many instructions
//
// of one application running alone on one (canonicalized) configuration.
// Instead of every SlowdownTracker ticking a private single-core replica
// to each milestone — re-simulating the same benchmark once per workload
// mix — the cache simulates each (config, stream) pair once, records one
// point per retiring cycle into a delta-encoded stream while extending
// lazily on demand under a per-entry lock, and answers every CyclesAt
// query from any mix or worker from a checkpoint index.
//
// Sharing is sound because curve identity is exact: instruction streams
// are pure functions of their AppSource.Key (for generator-backed
// sources, the (spec, seed) pair — see SourcesFromSpecs), and the
// canonical alone configuration (Config.aloneCurveConfig) retains every
// timing-relevant knob while normalizing away the ones a solo run cannot
// observe. Cached answers are bit-identical to a private AloneProfile's.
//
// The zero value is not ready; use NewAloneCurveCache. All methods are
// safe for concurrent use. A nil *AloneCurveCache is accepted by the
// tracker constructors and simply disables sharing.
type AloneCurveCache struct {
	mu      sync.Mutex
	entries map[aloneKey]*aloneCurve

	saved  atomic.Uint64 // replica cycles avoided versus private replicas
	points atomic.Int64  // total recorded curve points
	bytes  atomic.Int64  // total encoded curve bytes (see Bytes)
	tel    atomic.Pointer[aloneCacheTel]
}

// aloneKey identifies one curve: the canonical alone-config fingerprint
// plus the instruction-stream identity.
type aloneKey struct {
	cfg string
	app string
}

// aloneCacheTel holds resolved telemetry handles (see SetTelemetry).
type aloneCacheTel struct {
	hits           *telemetry.Counter
	misses         *telemetry.Counter
	extensions     *telemetry.Counter
	extendedCycles *telemetry.Counter
	savedCycles    *telemetry.Gauge
	entries        *telemetry.Gauge
	points         *telemetry.Gauge
	bytes          *telemetry.Gauge
}

// NewAloneCurveCache returns an empty cache.
func NewAloneCurveCache() *AloneCurveCache {
	return &AloneCurveCache{entries: map[aloneKey]*aloneCurve{}}
}

// SetTelemetry publishes the cache's counters under the "alone_cache"
// scope of r: hits (queries answered without simulating), misses (curves
// built), extensions (queries that had to advance a replica),
// extended_cycles (replica cycles actually simulated), and the
// saved_cycles / entries / points / bytes gauges. A nil registry disables
// telemetry. Safe to call concurrently with queries.
func (c *AloneCurveCache) SetTelemetry(r *telemetry.Registry) {
	if c == nil || r == nil {
		return
	}
	sc := r.Scope("alone_cache")
	t := &aloneCacheTel{
		hits:           sc.Counter("hits"),
		misses:         sc.Counter("misses"),
		extensions:     sc.Counter("extensions"),
		extendedCycles: sc.Counter("extended_cycles"),
		savedCycles:    sc.Gauge("saved_cycles"),
		entries:        sc.Gauge("entries"),
		points:         sc.Gauge("points"),
		bytes:          sc.Gauge("bytes"),
	}
	c.mu.Lock()
	t.entries.Set(int64(len(c.entries)))
	c.mu.Unlock()
	t.points.Set(c.points.Load())
	t.bytes.Set(c.bytes.Load())
	t.savedCycles.Set(int64(c.saved.Load()))
	c.tel.Store(t)
}

// Cursor returns a per-tracker-slot view of app's alone curve under cfg,
// creating the curve entry (and its lazily-ticked replica) on first use.
// Each slot needs its own cursor because saved-cycle accounting tracks
// the slot's previous milestone. Sources without a stream key cannot be
// cached and return an error; callers fall back to a private replica.
func (c *AloneCurveCache) Cursor(cfg Config, app AppSource) (*AloneCursor, error) {
	if app.Key == "" {
		return nil, fmt.Errorf("sim: source %q has no stream key; alone curve not shareable", app.Name)
	}
	alone := cfg.aloneCurveConfig()
	key := aloneKey{cfg: alone.Fingerprint(), app: app.Key}
	c.mu.Lock()
	defer c.mu.Unlock()
	cv := c.entries[key]
	if cv == nil {
		sys, err := NewWithSources(alone, []AppSource{app})
		if err != nil {
			return nil, err
		}
		cv = &aloneCurve{cache: c, sys: sys}
		c.entries[key] = cv
		if t := c.tel.Load(); t != nil {
			t.misses.Inc()
			t.entries.Set(int64(len(c.entries)))
		}
	}
	return &AloneCursor{curve: cv}, nil
}

// Len returns the number of cached curves.
func (c *AloneCurveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Points returns the total number of recorded curve points across all
// entries (each costs about 1.2–1.5 bytes; see Bytes).
func (c *AloneCurveCache) Points() int64 { return c.points.Load() }

// Bytes returns the memory the recorded points take across all entries:
// the encoded delta streams plus their checkpoint indexes, counted by
// length (slice capacity slack is not included).
func (c *AloneCurveCache) Bytes() int64 { return c.bytes.Load() }

// SavedCycles returns the cumulative replica cycles that cache hits
// avoided simulating compared to per-tracker private replicas.
func (c *AloneCurveCache) SavedCycles() uint64 { return c.saved.Load() }

// Reset drops all cached curves, bounding memory between independent
// sweeps. Outstanding cursors keep their (now unlisted) curves working.
func (c *AloneCurveCache) Reset() {
	c.mu.Lock()
	c.entries = map[aloneKey]*aloneCurve{}
	c.mu.Unlock()
	c.points.Store(0)
	c.bytes.Store(0)
	if t := c.tel.Load(); t != nil {
		t.entries.Set(0)
		t.points.Set(0)
		t.bytes.Set(0)
	}
}

// observe records one query's accounting: delta is the alone-cycle
// advance the query represents, ticked the replica cycles actually
// simulated to cover it. Their difference is work a private replica
// would have re-simulated.
func (c *AloneCurveCache) observe(delta, ticked uint64) {
	if delta > ticked {
		c.saved.Add(delta - ticked)
	}
	t := c.tel.Load()
	if t == nil {
		return
	}
	if ticked > 0 {
		t.extensions.Inc()
		t.extendedCycles.Add(ticked)
	} else {
		t.hits.Inc()
	}
	t.savedCycles.Set(int64(c.saved.Load()))
	t.points.Set(c.points.Load())
	t.bytes.Set(c.bytes.Load())
}

// aloneCurve is one cached (instructions -> cycles) step curve plus the
// replica that extends it. Points are stored as deltas from their
// predecessor (the first from (0, 0)) in one byte stream: the common
// point — 1–4 instructions retired 1–63 cycles after the previous one —
// takes one byte, (Δinstr-1)<<6 | Δcycle; any other point takes the
// escape byte (Δcycle bits zero) followed by Δinstr and Δcycle as
// uvarints, so no width or gap needs a separate representation. Every
// aloneStride-th point is also checkpointed with its absolute values, so
// a lookup decodes at most aloneStride points.
type aloneCurve struct {
	cache *AloneCurveCache

	mu    sync.RWMutex
	sys   *System
	enc   []byte
	index []aloneCheckpoint
	n     int    // points recorded
	instr uint64 // last point's instruction count (0 when empty)
	cycle uint64 // last point's cycle
}

// aloneCheckpoint is the absolute position of point i*aloneStride; off is
// the offset in aloneCurve.enc just past that point's encoding.
type aloneCheckpoint struct {
	instr, cycle uint64
	off          int
}

const (
	aloneStride = 128
	aloneEscape = 0
)

// bytes is the curve's encoded size: stream plus index, counted by len.
func (c *aloneCurve) bytes() int64 {
	return int64(len(c.enc)) + int64(len(c.index))*int64(unsafe.Sizeof(aloneCheckpoint{}))
}

// cyclesAt returns the first cycle with at least n instructions retired,
// extending the curve if needed, plus the replica cycles ticked to get
// there. The fast path answers from the recorded prefix under a read
// lock; only uncovered queries take the write lock and tick the replica.
func (c *aloneCurve) cyclesAt(n uint64) (cyc, ticked uint64) {
	if n == 0 {
		return 0, 0
	}
	c.mu.RLock()
	if c.covered(n) {
		cyc = c.lookup(n)
		c.mu.RUnlock()
		return cyc, 0
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	points, size := c.n, c.bytes()
	for !c.covered(n) {
		prev := c.sys.Retired(0)
		before := c.sys.Cycle()
		// Step, not Tick: memory-bound stretches take the skip-ahead fast
		// path. A skip window retires nothing, so every retirement still
		// lands on its exact cycle; ticked keeps counting replica cycles
		// simulated (skipped ones included — they are covered work).
		c.sys.Step()
		ticked += c.sys.Cycle() - before
		if r := c.sys.Retired(0); r > prev {
			c.append(r, c.sys.Cycle())
		}
	}
	c.cache.points.Add(int64(c.n - points))
	c.cache.bytes.Add(c.bytes() - size)
	return c.lookup(n), ticked
}

// covered reports whether the recorded curve already reaches milestone n.
// Callers hold c.mu (either mode).
func (c *aloneCurve) covered(n uint64) bool { return c.instr >= n }

// lookup returns the cycle of the first point with instr >= n: a binary
// search of the checkpoints, then a decode of at most aloneStride points.
// Callers hold c.mu and have checked covered(n) for some n > 0.
func (c *aloneCurve) lookup(n uint64) uint64 {
	i := sort.Search(len(c.index), func(i int) bool { return c.index[i].instr >= n })
	if i == 0 {
		return c.index[0].cycle
	}
	cp := c.index[i-1]
	instr, cycle, off := cp.instr, cp.cycle, cp.off
	for instr < n {
		b := c.enc[off]
		off++
		if b != aloneEscape {
			instr += uint64(b>>6) + 1
			cycle += uint64(b & 63)
			continue
		}
		di, k := binary.Uvarint(c.enc[off:])
		off += k
		dc, k := binary.Uvarint(c.enc[off:])
		off += k
		instr += di
		cycle += dc
	}
	return cycle
}

// append records the point (instr, cycle). Callers hold c.mu for writing.
func (c *aloneCurve) append(instr, cycle uint64) {
	di, dc := instr-c.instr, cycle-c.cycle
	if di-1 < 4 && dc-1 < 63 {
		c.enc = append(c.enc, byte((di-1)<<6|dc))
	} else {
		c.enc = append(c.enc, aloneEscape)
		c.enc = binary.AppendUvarint(c.enc, di)
		c.enc = binary.AppendUvarint(c.enc, dc)
	}
	if c.n%aloneStride == 0 {
		c.index = append(c.index, aloneCheckpoint{instr: instr, cycle: cycle, off: len(c.enc)})
	}
	c.n++
	c.instr, c.cycle = instr, cycle
}

// AloneCursor is one tracker slot's handle on a shared alone curve. It
// remembers the slot's previous answer so the cache can account saved
// cycles; the curve itself is shared and concurrency-safe.
type AloneCursor struct {
	curve *aloneCurve
	last  uint64
}

// CyclesAt returns the cycle at which the alone run has retired at least
// instr instructions — the same contract and bit-identical values as
// AloneProfile.CyclesAt. Queries must be non-decreasing per cursor (they
// are: cumulative milestones only grow).
func (cu *AloneCursor) CyclesAt(instr uint64) uint64 {
	cyc, ticked := cu.curve.cyclesAt(instr)
	cu.curve.cache.observe(cyc-cu.last, ticked)
	cu.last = cyc
	return cyc
}
