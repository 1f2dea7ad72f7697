package dram

import (
	"math"
	"math/rand"
	"testing"
)

// driveTicked advances the controller tick by tick from cycle `from` to
// `to` (inclusive, on the tick grid), enqueuing enq[i] at the first grid
// cycle >= its Enqueue stamp.
func driveTicked(c *Controller, from, to uint64, enq []*Request) {
	driveTickedWith(c, c.Tick, from, to, enq)
}

// driveTickedWith is driveTicked with the tick function supplied (the
// accounting reference substitutes its own).
func driveTickedWith(c *Controller, tick func(uint64), from, to uint64, enq []*Request) {
	ratio := uint64(c.timing.CPUPerDRAM)
	next := 0
	for now := from; now <= to; now += ratio {
		for next < len(enq) && enq[next].Enqueue <= now {
			c.Enqueue(enq[next], now)
			next++
		}
		tick(now)
	}
}

// driveSkipped advances the controller over the same window using
// NextEventCycle horizons and SkipTicks for every frozen stretch,
// enqueuing at the same grid cycles as driveTicked.
func driveSkipped(t *testing.T, c *Controller, from, to uint64, enq []*Request) (skipped uint64) {
	return driveSkippedWith(t, c, c.Tick, c.SkipTicks, from, to, enq)
}

// driveSkippedWith is driveSkipped with the tick and skip functions
// supplied.
func driveSkippedWith(t *testing.T, c *Controller, tick func(uint64), skip func(uint64, uint64), from, to uint64, enq []*Request) (skipped uint64) {
	t.Helper()
	ratio := uint64(c.timing.CPUPerDRAM)
	next := 0
	now := from
	for now <= to {
		for next < len(enq) && enq[next].Enqueue <= now {
			c.Enqueue(enq[next], now)
			next++
		}
		h := c.NextEventCycle(now)
		if h < now {
			t.Fatalf("NextEventCycle(%d) = %d went backwards", now, h)
		}
		if h == now {
			tick(now)
			now += ratio
			continue
		}
		// Frozen window: skip whole ticks up to the horizon, the next
		// enqueue, or the end of the run, whichever comes first.
		end := h
		if next < len(enq) {
			ne := from + (enq[next].Enqueue-from+ratio-1)/ratio*ratio
			if ne < end {
				end = ne
			}
		}
		if to+ratio < end {
			end = to + ratio
		}
		if end <= now {
			tick(now)
			now += ratio
			continue
		}
		k := (end - now + ratio - 1) / ratio
		skip(now, k)
		skipped += k
		now += k * ratio
	}
	return skipped
}

// compareControllers asserts every observable accounting of the two
// controllers is bit-identical (float accumulators compared by bits).
func compareControllers(t *testing.T, trial int, a, b *Controller, numApps int) {
	t.Helper()
	for app := 0; app < numApps; app++ {
		if x, y := a.InterferenceCycles(app), b.InterferenceCycles(app); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("trial %d app %d: interference %v (%x) vs %v (%x)",
				trial, app, x, math.Float64bits(x), y, math.Float64bits(y))
		}
		if x, y := a.QueueingCycles(app), b.QueueingCycles(app); x != y {
			t.Errorf("trial %d app %d: queueing %d vs %d", trial, app, x, y)
		}
		if x, y := a.ReadsDone(app), b.ReadsDone(app); x != y {
			t.Errorf("trial %d app %d: readsDone %d vs %d", trial, app, x, y)
		}
		if x, y := a.AvgReadLatency(app), b.AvgReadLatency(app); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("trial %d app %d: avg latency %v vs %v", trial, app, x, y)
		}
		if x, y := a.RowHitRate(app), b.RowHitRate(app); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("trial %d app %d: row-hit rate %v vs %v", trial, app, x, y)
		}
		if x, y := a.OutstandingReads(app), b.OutstandingReads(app); x != y {
			t.Errorf("trial %d app %d: outstanding %d vs %d", trial, app, x, y)
		}
		if (a.attrib == nil) != (b.attrib == nil) {
			t.Fatalf("trial %d: one controller has an attribution ledger, the other not", trial)
		}
		if a.attrib == nil {
			continue
		}
		if x, y := a.attrib.RowCycles(app), b.attrib.RowCycles(app); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("trial %d app %d: attrib scaled %v vs %v", trial, app, x, y)
		}
	}
	if a.attrib != nil {
		rawA, rawB := a.attrib.Raw(), b.attrib.Raw()
		for v := range rawA {
			for c := range rawA[v] {
				if rawA[v][c] != rawB[v][c] {
					t.Errorf("trial %d: attrib[%d][%d] %d vs %d", trial, v, c, rawA[v][c], rawB[v][c])
				}
			}
		}
	}
	if x, y := a.QueuedReads(), b.QueuedReads(); x != y {
		t.Errorf("trial %d: queued reads %d vs %d", trial, x, y)
	}
	if x, y := a.Refreshes(), b.Refreshes(); x != y {
		t.Errorf("trial %d: refreshes %d vs %d", trial, x, y)
	}
	if x, y := a.BusUtilization(), b.BusUtilization(); math.Float64bits(x) != math.Float64bits(y) {
		t.Errorf("trial %d: bus utilization %v vs %v", trial, x, y)
	}
	if a.totalTicks != b.totalTicks || a.busyTicks != b.busyTicks {
		t.Errorf("trial %d: ticks %d/%d vs %d/%d", trial, a.busyTicks, a.totalTicks, b.busyTicks, b.totalTicks)
	}
	if a.refreshCountdown != b.refreshCountdown {
		t.Errorf("trial %d: refresh countdown %d vs %d", trial, a.refreshCountdown, b.refreshCountdown)
	}
}

// TestSkipTicksMatchesTicked is the controller-level differential test
// for the frozen-window fast path: random multi-app request patterns
// (with the epoch priority overlay, the attribution ledger, per-request
// cause vectors, and refresh-enabled timing variants) driven through
// NextEventCycle + SkipTicks must leave every accounting — including the
// float interference accumulators, compared bit for bit — identical to
// ticking through every DRAM cycle.
func TestSkipTicksMatchesTicked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		timing := DDR31333()
		if trial%3 == 2 {
			timing = DDR31333WithRefresh()
		}
		numApps := 2 + trial%3
		geom := DefaultGeometry(1)
		mk := func() (*Controller, []*Request) {
			c := NewController(timing, geom, 0, numApps, NewFRFCFS())
			c.SetAttribution(NewAttribution(numApps))
			c.SetPriorityApp(trial % numApps)
			n := 8 + rng.Intn(40)
			reqs := make([]*Request, 0, n)
			var at uint64
			for i := 0; i < n; i++ {
				r := &Request{
					App:      rng.Intn(numApps),
					LineAddr: uint64(rng.Intn(1 << 14)),
					Write:    rng.Intn(8) == 0,
					Causes:   make([]uint64, numApps+1),
				}
				r.Enqueue = at
				at += uint64(rng.Intn(300))
				reqs = append(reqs, r)
			}
			return c, reqs
		}
		// Identical RNG draws for both sides: rebuild the generator.
		seed := rng.Int63()
		rng = rand.New(rand.NewSource(seed))
		ticked, reqsT := mk()
		rng = rand.New(rand.NewSource(seed))
		skippy, reqsS := mk()

		end := uint64(40_000)
		driveTicked(ticked, 0, end, reqsT)
		skipped := driveSkipped(t, skippy, 0, end, reqsS)
		if skipped == 0 {
			t.Errorf("trial %d: no ticks skipped", trial)
		}
		compareControllers(t, trial, ticked, skippy, numApps)
		for i := range reqsT {
			if reqsT[i].InterfCycles != reqsS[i].InterfCycles {
				t.Errorf("trial %d req %d: interference %d vs %d",
					trial, i, reqsT[i].InterfCycles, reqsS[i].InterfCycles)
			}
			for c := range reqsT[i].Causes {
				if reqsT[i].Causes[c] != reqsS[i].Causes[c] {
					t.Errorf("trial %d req %d cause %d: %d vs %d",
						trial, i, c, reqsT[i].Causes[c], reqsS[i].Causes[c])
				}
			}
			if reqsT[i].Complete != reqsS[i].Complete {
				t.Errorf("trial %d req %d: complete %d vs %d", trial, i, reqsT[i].Complete, reqsS[i].Complete)
			}
		}
	}
}

// TestNextEventCycleQuiescent pins the horizon's boundary returns: an
// idle controller is fully quiescent, and a serviceable queued read makes
// the very next tick eventful.
func TestNextEventCycleQuiescent(t *testing.T) {
	c := NewController(DDR31333(), DefaultGeometry(1), 0, 2, NewFRFCFS())
	if got := c.NextEventCycle(0); got != NoEventCycle {
		t.Fatalf("idle controller: NextEventCycle = %d, want NoEventCycle", got)
	}
	// One request: next tick must be eventful (issue is possible).
	r := &Request{App: 0, LineAddr: 1}
	c.Enqueue(r, 0)
	if got := c.NextEventCycle(0); got != 0 {
		t.Fatalf("serviceable read: NextEventCycle = %d, want 0", got)
	}
}
