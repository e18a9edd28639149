// Flow-level fast-path: the fluid model that lets steady-state flows skip
// per-packet events.
//
// A fluid flow holds a max-min fair bandwidth allocation and advances
// analytically: nothing is scheduled per batch, and whenever the model
// needs ground truth (an allocation change, a mode transition, a stop) the
// flow "settles" — the batches it would have emitted since the last settle
// are credited to its ledger in closed form, with the same integer emission
// arithmetic the packet path uses. An uncongested flow therefore produces
// byte-for-byte the ledger a packet-level run produces, which is what the
// fastpath≡packet differential gates pin.
//
// Allocations recompute on flow add/remove/finish and on link-state
// changes, coalesced through a sim.Trigger so a bulk setup of ten thousand
// flows costs one water-filling pass, not ten thousand.
//
// Mode transitions (FastpathAuto):
//
//	fluid --(path link demand ≥ demoteUtil, or queue > 3/4 cap)--> packet
//	packet --(path calm ≥ promoteQuiet: demand ≤ promoteUtil,
//	          queues drained, path up)--> fluid
//
// Demotion settles first, so no bytes are lost or invented across the
// transition — the chaos audit (AuditClos) checks exactly that. Capacity
// stays coherent across the split world: every link's packet drain rate is
// its line rate minus the fluid allocations through it (link.effRate).
package cluster

import (
	"math"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Fast-path hysteresis. A fluid flow demotes to packet level when a
// traversed link's demand utilization reaches demoteUtil or its queue
// crosses three quarters of capacity; a demoted flow promotes back after its
// path has stayed below promoteUtil with drained queues for promoteQuiet,
// checked by a poll every pollEvery.
const (
	demoteUtil   = 0.95
	promoteUtil  = 0.85
	promoteQuiet = 10 * units.Millisecond
	pollEvery    = promoteQuiet / 2
)

type fluidModel struct {
	c    *Clos
	mode FastpathMode

	recomputeT *sim.Trigger
	pollH      sim.Handle
	pollFn     func()

	demotions  *obs.Counter
	promotions *obs.Counter
	recomputes *obs.Counter

	// scratch reused across recomputes
	idx     []*ClosFlow
	demands []float64
	paths   [][]int
	caps    []float64
}

func newFluidModel(c *Clos, mode FastpathMode) *fluidModel {
	m := &fluidModel{
		c:          c,
		mode:       mode,
		demotions:  c.Obs.Counter("cluster.clos.fastpath.demotions"),
		promotions: c.Obs.Counter("cluster.clos.fastpath.promotions"),
		recomputes: c.Obs.Counter("cluster.clos.fastpath.recomputes"),
	}
	m.recomputeT = sim.NewTrigger(c.Eng, "clos:recompute", m.recompute)
	m.pollFn = m.poll
	return m
}

// dirty requests an allocation recompute at the current instant; any number
// of same-instant requests coalesce into one water-filling pass.
func (m *fluidModel) dirty() { m.recomputeT.Fire() }

// admit places a new flow in its starting mode. Fluid is provisional in
// auto mode: the recompute this triggers runs at the same instant — before
// the flow's first emission — and demotes it if its path is congested.
func (m *fluidModel) admit(f *ClosFlow) {
	if m.mode != FastpathOff && f.pathUp() {
		f.fluid = true
		f.alloc = float64(f.demand)
	} else {
		f.emitH = m.c.Eng.At(f.nextEmit, "clos:emit", f.emitFn)
	}
	m.dirty()
}

// fluidPeriod mirrors units.TransferTime for a float rate, so a fluid flow
// whose allocation equals its demand reproduces the packet-mode emission
// period bit-for-bit.
func fluidPeriod(s units.Size, bps float64) units.Duration {
	if bps <= 0 {
		return 0
	}
	return units.Duration(float64(s.Bits()) / bps * float64(units.Second))
}

// fluidDelay is the uncontended traversal time of one batch: per-link
// serialization at line rate plus hop latency — the same sum the packet
// path accumulates when queues are empty.
func (m *fluidModel) fluidDelay(f *ClosFlow, bytes units.Size) units.Duration {
	var d units.Duration
	for _, l := range f.path {
		d += units.TransferTime(bytes, l.cfg.Rate) + l.cfg.Latency
	}
	return d
}

// settle advances a fluid flow's ledger to now: every emission due since
// the last settle is credited injected and delivered (the fluid path is
// lossless) in closed form. Emission instants are nextEmit + k·period with
// the identical integer arithmetic the packet emitter uses.
func (m *fluidModel) settle(f *ClosFlow, now units.Time) {
	if !f.fluid || f.stopped || f.alloc <= 0 {
		return
	}
	pe := fluidPeriod(f.batchBytes, f.alloc)
	if pe <= 0 {
		pe = 1
	}
	if f.nextEmit > now {
		return
	}
	due := int64(now.Sub(f.nextEmit))/int64(pe) + 1

	batches := due
	bytes := units.Size(due) * f.batchBytes
	pkts := due * int64(f.batchCount)
	lastBytes := f.batchBytes
	if f.totalBytes > 0 {
		rem := f.totalBytes - f.emittedBytes
		if rem <= 0 {
			return
		}
		full := int64(rem / f.batchBytes)
		partial := rem % f.batchBytes
		n := min(due, full)
		batches, bytes, pkts = n, units.Size(n)*f.batchBytes, n*int64(f.batchCount)
		if due > n && partial > 0 {
			batches++
			bytes += partial
			pkts += int64((partial + model.FrameSize - 1) / model.FrameSize)
			lastBytes = partial
		}
	}
	if batches == 0 {
		return
	}
	lastEmit := f.nextEmit.Add(units.Duration(batches-1) * pe)
	f.nextEmit = lastEmit.Add(pe)
	f.seq += batches
	// Fluid emissions deliver in order by construction: advance the
	// resequencer past them and flush anything that was waiting.
	f.resolvedSeq = f.seq
	f.flushParked(now)
	f.injectedPkts += pkts
	f.emittedBytes += bytes
	f.deliveredPkts += pkts
	f.deliveredBytes += bytes
	if at := lastEmit.Add(m.fluidDelay(f, lastBytes)); at > f.lastDeliveryAt {
		f.lastDeliveryAt = at
	}
	for _, l := range f.path {
		l.tier.fluidBytes.Add(int64(bytes))
	}
	if f.totalBytes > 0 && f.emittedBytes >= f.totalBytes {
		f.doneH.Cancel()
		f.finish()
	}
}

// demote drops a flow to packet level. The caller must have settled it at
// the current instant first.
func (m *fluidModel) demote(f *ClosFlow, now units.Time) {
	f.fluid = false
	f.hasCalm = false
	f.doneH.Cancel()
	m.demotions.Inc()
	if f.nextEmit < now {
		// Only reachable from a starved (zero-allocation) fluid segment:
		// resume the source immediately rather than replaying the past.
		f.nextEmit = now
	}
	if !f.emitH.Pending() {
		f.emitH = m.c.Eng.At(f.nextEmit, "clos:emit", f.emitFn)
	}
}

// promote lifts a flow back to the fluid path from its next emission on.
// In-flight packet batches still deliver through their queues.
func (m *fluidModel) promote(f *ClosFlow) {
	f.fluid = true
	f.emitH.Cancel()
	m.promotions.Inc()
}

// queuePressure fires from the packet path when a queue with fluid
// occupants crosses the congestion threshold: every fluid flow crossing the
// link demotes, and the freed reservations recompute.
func (m *fluidModel) queuePressure(l *link) {
	now := m.c.Eng.Now()
	changed := false
	for _, f := range m.c.flows {
		if !f.fluid || f.stopped {
			continue
		}
		for _, pl := range f.path {
			if pl == l {
				m.settle(f, now)
				m.demote(f, now)
				changed = true
				break
			}
		}
	}
	if changed {
		m.dirty()
	}
}

// scheduleCompletion (re)arms the analytic completion event for a finite
// fluid flow under its current allocation.
func (m *fluidModel) scheduleCompletion(f *ClosFlow, now units.Time) {
	f.doneH.Cancel()
	if f.alloc <= 0 {
		return
	}
	pe := fluidPeriod(f.batchBytes, f.alloc)
	if pe <= 0 {
		pe = 1
	}
	rem := f.totalBytes - f.emittedBytes
	if rem <= 0 {
		return
	}
	full := int64(rem / f.batchBytes)
	partial := rem % f.batchBytes
	batches := full
	lastBytes := f.batchBytes
	if partial > 0 {
		batches++
		lastBytes = partial
	}
	lastEmit := f.nextEmit.Add(units.Duration(batches-1) * pe)
	at := lastEmit.Add(m.fluidDelay(f, lastBytes))
	if at < now {
		at = now
	}
	f.doneH = m.c.Eng.At(at, "clos:fdone", f.doneFn)
}

// congested reports whether any link on the flow's path has offered demand
// at or past the demotion threshold.
func (m *fluidModel) congested(f *ClosFlow) bool {
	for _, l := range f.path {
		if l.demandBps >= demoteUtil*float64(l.cfg.Rate) {
			return true
		}
	}
	return false
}

// calm reports whether the flow's path has drained queues and headroom —
// the promotion precondition.
func (m *fluidModel) calm(f *ClosFlow) bool {
	for _, l := range f.path {
		if !l.up || l.qBytes > l.cfg.QueueCap/8 ||
			l.demandBps > promoteUtil*float64(l.cfg.Rate) {
			return false
		}
	}
	return true
}

// recompute is the coalesced water-filling pass: settle all fluid progress
// at the outgoing allocations, re-solve max-min fairness over the active
// flows, apply mode transitions, and install the new allocations.
func (m *fluidModel) recompute() {
	c := m.c
	now := c.Eng.Now()
	m.recomputes.Inc()

	for _, f := range c.flows {
		m.settle(f, now)
	}
	m.idx = m.idx[:0]
	for _, f := range c.flows {
		if !f.stopped && !f.done {
			m.idx = append(m.idx, f)
		}
	}
	if cap(m.caps) < len(c.links) {
		m.caps = make([]float64, 0, len(c.links))
	}
	m.caps = m.caps[:0]
	for _, l := range c.links {
		l.fluidRate, l.fluidFlows, l.demandBps = 0, 0, 0
		m.caps = append(m.caps, float64(l.cfg.Rate))
	}
	m.demands = m.demands[:0]
	m.paths = m.paths[:0]
	for _, f := range m.idx {
		m.demands = append(m.demands, float64(f.demand))
		m.paths = append(m.paths, f.pathIdx)
		for _, l := range f.path {
			l.demandBps += float64(f.demand)
		}
	}
	alloc := MaxMinAllocate(m.demands, m.paths, m.caps)

	for i, f := range m.idx {
		wasFluid := f.fluid
		wantFluid := false
		switch m.mode {
		case FastpathOn:
			wantFluid = f.pathUp()
		case FastpathAuto:
			// Promotion of a demoted flow goes through the quiescence poll;
			// here fluid flows only hold on or demote.
			wantFluid = wasFluid && f.pathUp() && !m.congested(f)
		}
		if wasFluid && !wantFluid {
			m.demote(f, now)
		} else if !wasFluid && wantFluid {
			m.promote(f)
		}
		if f.fluid {
			f.alloc = alloc[i]
			for _, l := range f.path {
				l.fluidRate += alloc[i]
				l.fluidFlows++
			}
			if f.totalBytes > 0 {
				m.scheduleCompletion(f, now)
			}
		}
	}
	m.armPoll(now)
}

// poll is the promotion scan: demoted flows whose path has stayed calm for
// promoteQuiet go back to the fluid path.
func (m *fluidModel) poll() {
	now := m.c.Eng.Now()
	changed := false
	for _, f := range m.c.flows {
		if f.stopped || f.done || f.fluid {
			continue
		}
		if m.calm(f) {
			if !f.hasCalm {
				f.hasCalm = true
				f.calmSince = now
			}
			if now.Sub(f.calmSince) >= promoteQuiet {
				m.promote(f)
				changed = true
			}
		} else {
			f.hasCalm = false
		}
	}
	if changed {
		m.dirty()
	}
	m.armPoll(now)
}

// armPoll keeps the promotion scan alive while any demoted flow exists (in
// auto mode only; forced modes never poll).
func (m *fluidModel) armPoll(now units.Time) {
	if m.mode != FastpathAuto || m.pollH.Pending() {
		return
	}
	for _, f := range m.c.flows {
		if !f.stopped && !f.done && !f.fluid {
			m.pollH = m.c.Eng.At(now.Add(pollEvery), "clos:promote-poll", m.pollFn)
			return
		}
	}
}

// MaxMinAllocate solves demand-bounded max-min fairness by progressive
// filling (water-filling): every unfrozen flow's allocation rises at the
// same rate; a flow freezes when it reaches its demand (snapped exactly, so
// an uncongested flow's allocation is bit-identical to its demand) or when
// a traversed link saturates. paths[i] lists the link indices flow i
// crosses; caps[l] is link l's capacity. Flows with empty paths are bounded
// only by demand. The result is deterministic in the input order.
func MaxMinAllocate(demands []float64, paths [][]int, caps []float64) []float64 {
	n := len(demands)
	alloc := make([]float64, n)
	frozen := make([]bool, n)
	active := make([]int, len(caps))
	usedFrozen := make([]float64, len(caps))
	remaining := 0
	for i, d := range demands {
		if d <= 0 {
			frozen[i] = true
			continue
		}
		remaining++
		for _, l := range paths[i] {
			active[l]++
		}
	}
	level := 0.0
	for remaining > 0 {
		// Smallest increment to the next freezing event. The freeze pass
		// below re-derives each candidate with the identical expression, so
		// "<= inc" finds exactly the argmin set — no epsilon needed.
		inc := math.Inf(1)
		for i := range demands {
			if !frozen[i] {
				if d := demands[i] - level; d < inc {
					inc = d
				}
			}
		}
		for l := range caps {
			if active[l] > 0 {
				if r := (caps[l]-usedFrozen[l])/float64(active[l]) - level; r < inc {
					inc = r
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		freezeAt := func(i int, a float64) {
			frozen[i] = true
			alloc[i] = a
			remaining--
			for _, l := range paths[i] {
				active[l]--
				usedFrozen[l] += a
			}
		}
		froze := false
		for i := range demands {
			if !frozen[i] && demands[i]-level <= inc {
				freezeAt(i, demands[i]) // demand-limited: snap exact
				froze = true
			}
		}
		for l := range caps {
			if active[l] == 0 {
				continue
			}
			if (caps[l]-usedFrozen[l])/float64(active[l])-level <= inc {
				for i := range demands {
					if frozen[i] {
						continue
					}
					for _, pl := range paths[i] {
						if pl == l {
							freezeAt(i, level+inc)
							froze = true
							break
						}
					}
				}
			}
		}
		level += inc
		if !froze {
			// Numerical backstop: freeze everything at the current level.
			for i := range demands {
				if !frozen[i] {
					freezeAt(i, level)
				}
			}
		}
	}
	return alloc
}
