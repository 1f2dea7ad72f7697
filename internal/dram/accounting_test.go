package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

// The per-request accounting reference: the controller's original
// interference accounting, which walks every queued read on every tick
// and charges each read's InterfCycles directly. The production
// controller instead advances one interference clock per (bank, app)
// pair and settles a read's charge when it leaves the queue;
// TestAccountingMatchesPerRequestReference holds the two bit-identical.
// A reference controller never advances its clocks, so its reads settle
// a zero clock delta on dequeue and keep exactly what the walk charged.

// refTick is Tick with the per-request accounting walk.
func (c *Controller) refTick(now uint64) {
	c.advance(now)
	c.refAccount(now)
	c.schedule(now)
}

// refSkipTicks is SkipTicks with the per-request accounting walk.
func (c *Controller) refSkipTicks(nextTick, n uint64) {
	c.skipCounters(nextTick, n)
	c.refSkipAccount(n)
}

func (c *Controller) refAccount(now uint64) {
	if c.numApps == 1 || len(c.readQ) == 0 {
		return
	}
	ratio := uint64(c.timing.CPUPerDRAM)
	blocked := c.blockedScratch
	for i := range blocked {
		blocked[i] = 0
	}
	busBusyOther := c.busBusyUntil > now
	cmdSlotTaken := c.anyIssued && now-c.lastCmdCycle <= ratio
	for _, r := range c.readQ {
		b := &c.banks[r.bank]
		bankBusy := b.busyUntil > now
		cause := -2
		if bankBusy {
			if b.occupant != r.App {
				cause = b.occupant
			}
		} else if busBusyOther && c.busApp != r.App {
			cause = c.busApp
		} else if cmdSlotTaken && c.lastCmdApp != r.App {
			cause = c.lastCmdApp
		}
		if cause != -2 {
			r.addInterference(ratio)
			if r.App < len(blocked) {
				blocked[r.App]++
			}
			if c.attrib != nil {
				c.attrib.add(r.App, cause, ratio)
			}
			if r.Causes != nil {
				ci := cause
				if ci < 0 || ci >= len(r.Causes)-1 {
					ci = len(r.Causes) - 1
				}
				r.Causes[ci] += ratio
			}
		}
	}
	for app := 0; app < c.numApps && app < len(blocked); app++ {
		if n := blocked[app]; n > 0 {
			par := c.outstanding[app]
			if par < n {
				par = n
			}
			contrib := float64(ratio) * float64(n) / float64(par)
			c.interfCycles[app] += contrib
			if c.attrib != nil {
				c.attrib.addScaled(app, contrib)
			}
		}
	}
	if p := c.priorityApp; p >= 0 && p < len(blocked) && blocked[p] > 0 && c.lastCmdApp != p {
		c.queueingCycles[p] += ratio
	}
}

func (c *Controller) refSkipAccount(n uint64) {
	if c.numApps == 1 || len(c.readQ) == 0 {
		return
	}
	ratio := uint64(c.timing.CPUPerDRAM)
	blocked := c.blockedScratch
	for i := range blocked {
		blocked[i] = 0
	}
	for _, r := range c.readQ {
		b := &c.banks[r.bank]
		if b.occupant == r.App {
			continue
		}
		cause := b.occupant
		r.addInterference(ratio * n)
		if r.App < len(blocked) {
			blocked[r.App]++
		}
		if c.attrib != nil {
			c.attrib.add(r.App, cause, ratio*n)
		}
		if r.Causes != nil {
			ci := cause
			if ci < 0 || ci >= len(r.Causes)-1 {
				ci = len(r.Causes) - 1
			}
			r.Causes[ci] += ratio * n
		}
	}
	for app := 0; app < c.numApps && app < len(blocked); app++ {
		if bn := blocked[app]; bn > 0 {
			par := c.outstanding[app]
			if par < bn {
				par = bn
			}
			contrib := float64(ratio) * float64(bn) / float64(par)
			for j := uint64(0); j < n; j++ {
				c.interfCycles[app] += contrib
			}
			if c.attrib != nil {
				for j := uint64(0); j < n; j++ {
					c.attrib.addScaled(app, contrib)
				}
			}
		}
	}
	if p := c.priorityApp; p >= 0 && p < len(blocked) && blocked[p] > 0 && c.lastCmdApp != p {
		c.queueingCycles[p] += ratio * n
	}
}

// randomStream builds n seeded multi-app requests with rising Enqueue
// stamps: mostly reads, some writes and prefetches, bursts to shared
// banks, and Causes vectors on a sampled subset.
func randomStream(rng *rand.Rand, numApps, n int) []*Request {
	reqs := make([]*Request, 0, n)
	var at uint64
	for i := 0; i < n; i++ {
		r := &Request{
			App:      rng.Intn(numApps),
			LineAddr: uint64(rng.Intn(1 << 14)),
			Write:    rng.Intn(6) == 0,
			Prefetch: rng.Intn(10) == 0,
		}
		if rng.Intn(3) == 0 {
			r.Causes = make([]uint64, numApps+1)
		}
		r.Enqueue = at
		if rng.Intn(4) != 0 {
			at += uint64(rng.Intn(200)) // bursts keep the read queue deep
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestAccountingMatchesPerRequestReference is the differential test for
// the (bank, app) interference clocks: seeded random multi-app read and
// write streams under FR-FCFS, PARBS and TCM, with and without an
// attribution ledger, with a sampled subset of requests carrying Causes,
// ticked and via SkipTicks, must leave every request's InterfCycles and
// Causes, the Raw ledger, the InterferenceCycles and RowCycles float bits
// and the queueing cycles identical to the per-request walk.
func TestAccountingMatchesPerRequestReference(t *testing.T) {
	policies := []struct {
		name string
		new  func(numApps int, seed uint64) Scheduler
	}{
		{"FRFCFS", func(int, uint64) Scheduler { return NewFRFCFS() }},
		{"PARBS", func(n int, _ uint64) Scheduler { return NewPARBS(n) }},
		{"TCM", func(n int, seed uint64) Scheduler { return NewTCM(n, seed) }},
	}
	trial := 0
	for _, pol := range policies {
		for _, attrib := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/attrib=%v/skip=%v", pol.name, attrib, skip), func(t *testing.T) {
					for k := 0; k < 6; k++ {
						trial++
						seed := int64(1000*trial + k)
						timing := DDR31333()
						if k%3 == 2 {
							timing = DDR31333WithRefresh()
						}
						numApps := 2 + k%3
						mk := func() (*Controller, []*Request) {
							rng := rand.New(rand.NewSource(seed))
							c := NewController(timing, DefaultGeometry(1), 0, numApps, pol.new(numApps, uint64(seed)))
							if attrib {
								c.SetAttribution(NewAttribution(numApps))
							}
							c.SetPriorityApp(rng.Intn(numApps+1) - 1)
							return c, randomStream(rng, numApps, 60+rng.Intn(120))
						}
						got, reqsGot := mk()
						ref, reqsRef := mk()
						const end = 120_000
						if skip {
							if driveSkippedWith(t, got, got.Tick, got.SkipTicks, 0, end, reqsGot) == 0 {
								t.Errorf("trial %d: no ticks skipped", trial)
							}
							driveSkippedWith(t, ref, ref.refTick, ref.refSkipTicks, 0, end, reqsRef)
						} else {
							driveTickedWith(got, got.Tick, 0, end, reqsGot)
							driveTickedWith(ref, ref.refTick, 0, end, reqsRef)
						}
						compareControllers(t, trial, got, ref, numApps)
						interfered := 0
						for i, r := range reqsRef {
							g := reqsGot[i]
							if r.Complete == 0 {
								t.Fatalf("trial %d req %d never completed; lengthen the run", trial, i)
							}
							if g.InterfCycles != r.InterfCycles || g.Complete != r.Complete {
								t.Errorf("trial %d req %d: interference %d vs reference %d (complete %d vs %d)",
									trial, i, g.InterfCycles, r.InterfCycles, g.Complete, r.Complete)
							}
							for ci := range r.Causes {
								if g.Causes[ci] != r.Causes[ci] {
									t.Errorf("trial %d req %d cause %d: %d vs reference %d", trial, i, ci, g.Causes[ci], r.Causes[ci])
								}
							}
							if r.InterfCycles > 0 {
								interfered++
							}
						}
						if interfered == 0 {
							t.Errorf("trial %d: no request was interfered; the stream exercises nothing", trial)
						}
					}
				})
			}
		}
	}
}
