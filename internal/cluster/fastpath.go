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
	"slices"

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

	// packet holds every flow running at packet level, each once (see
	// ClosFlow.inPacket), plus flows that stopped, finished or promoted
	// since the last armPoll compacted it.
	packet []*ClosFlow

	// scratch reused across recomputes
	idx     []*ClosFlow
	demands []float64
	paths   [][]int
	caps    []float64
	mm      maxMin
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
		m.markPacket(f)
	}
	m.dirty()
}

// markPacket files a flow that just went to packet level on the packet
// list, once.
func (m *fluidModel) markPacket(f *ClosFlow) {
	if !f.inPacket {
		f.inPacket = true
		m.packet = append(m.packet, f)
	}
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
	if !f.fluid || f.stopped || f.alloc <= 0 || f.nextEmit > now {
		return
	}
	pe := fluidPeriod(f.batchBytes, f.alloc)
	if pe <= 0 {
		pe = 1
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
	m.markPacket(f)
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
// link demotes, and the freed reservations recompute. A finished flow still
// marked fluid demotes too, which is why Clos.live keeps such flows.
func (m *fluidModel) queuePressure(l *link) {
	now := m.c.Eng.Now()
	changed := false
	for _, f := range m.c.live {
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

// holds reports whether a fluid flow may stay fluid in auto mode: every link
// on its path is up, with offered demand below the demotion threshold.
func (m *fluidModel) holds(f *ClosFlow) bool {
	for _, l := range f.path {
		if !l.up || l.demandBps >= demoteUtil*float64(l.cfg.Rate) {
			return false
		}
	}
	return true
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

// deferrable reports whether recompute may skip settling f. Settle is
// closed-form on the fixed grid nextEmit + k·period, so settling an
// unbounded flow at t1 and again at t2 credits exactly what one settle at t2
// does, as long as its allocation, mode and batch size hold in between and
// no packet batch of its own can resolve meanwhile. recompute therefore
// settles such a flow only when its allocation changes or it demotes, and
// Stop and queuePressure settle it before they touch it. Finite flows never
// defer: their settle can finish them, which takes them out of the solve. A
// flow with packet batches in flight or parked, as one promoted from packet
// level has, never defers either: its settle moves the resequencer past
// them, which decides how they are credited when they land.
func (m *fluidModel) deferrable(f *ClosFlow) bool {
	return f.fluid && f.totalBytes == 0 && f.InFlight() == 0 && len(f.parked) == 0
}

// recompute is the coalesced water-filling pass: settle the fluid progress
// that cannot wait at the outgoing allocations, re-solve max-min fairness
// over the active flows, apply mode transitions, and install the new
// allocations. It also compacts Clos.live.
func (m *fluidModel) recompute() {
	c := m.c
	now := c.Eng.Now()
	m.recomputes.Inc()

	m.idx = m.idx[:0]
	live := c.live[:0]
	for _, f := range c.live {
		if f.stopped {
			continue
		}
		if !m.deferrable(f) {
			m.settle(f, now)
		}
		if f.done {
			if f.fluid {
				live = append(live, f)
			}
			continue
		}
		live = append(live, f)
		m.idx = append(m.idx, f)
	}
	clear(c.live[len(live):])
	c.live = live

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
	alloc := m.mm.solve(m.demands, m.paths, m.caps)

	for i, f := range m.idx {
		wasFluid := f.fluid
		wantFluid := false
		switch m.mode {
		case FastpathOn:
			wantFluid = f.pathUp()
		case FastpathAuto:
			// Promotion of a demoted flow goes through the quiescence poll;
			// here fluid flows only hold on or demote.
			wantFluid = wasFluid && m.holds(f)
		}
		if wasFluid && (!wantFluid || alloc[i] != f.alloc) {
			// The deferred settle, at the outgoing allocation. For a flow
			// settled above it is a no-op. A flow promoted below was not
			// fluid at this instant's settle, so it is not settled here.
			m.settle(f, now)
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
	for _, f := range m.packet {
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

// armPoll compacts the packet list, in every mode, and keeps the promotion
// scan alive while any demoted flow exists (in auto mode only; forced modes
// never poll).
func (m *fluidModel) armPoll(now units.Time) {
	pk := m.packet[:0]
	for _, f := range m.packet {
		if f.stopped || f.done || f.fluid {
			f.inPacket = false
			continue
		}
		pk = append(pk, f)
	}
	clear(m.packet[len(pk):])
	m.packet = pk
	if m.mode != FastpathAuto || m.pollH.Pending() || len(m.packet) == 0 {
		return
	}
	m.pollH = m.c.Eng.At(now.Add(pollEvery), "clos:promote-poll", m.pollFn)
}

// maxMin solves demand-bounded max-min fairness by progressive filling
// (water-filling): every unfrozen flow's allocation rises at the same rate;
// a flow freezes when it reaches its demand (snapped exactly, so an
// uncongested flow's allocation is bit-identical to its demand) or when a
// traversed link saturates. paths[i] lists the link indices flow i crosses;
// caps[l] is link l's capacity. Flows with empty paths are bounded only by
// demand.
//
// Each round finds the smallest increment to the next freezing event, then
// freezes the demand-limited flows in input order, then, link by link in
// index order, every unfrozen flow on a link whose share re-derives to at
// most that increment, in input order. That freeze order fixes every float
// the solve produces, so the result is deterministic in the input order. The
// buffers are reused across solves: a round touches only the unfrozen flows,
// the links some of them cross, and the members of the links that saturate.
type maxMin struct {
	alloc      []float64
	frozen     []bool
	active     []int     // [link] unfrozen flows crossing it, with multiplicity
	usedFrozen []float64 // [link] sum of the frozen allocations crossing it
	unfrozen   []int32   // flows not yet frozen, in input order
	links      []int32   // links with active > 0, ascending
	start      []int32   // [link] its members are members[start[l]:start[l+1]]
	members    []int32   // each link's positive-demand flows, in input order
}

// zeroed returns s resized to n and cleared, reusing its array when it is
// large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// solve returns the allocation of each flow. The slice is the solver's own
// and stays valid until the next solve.
func (s *maxMin) solve(demands []float64, paths [][]int, caps []float64) []float64 {
	n, nl := len(demands), len(caps)
	s.alloc = zeroed(s.alloc, n)
	s.frozen = zeroed(s.frozen, n)
	s.active = zeroed(s.active, nl)
	s.usedFrozen = zeroed(s.usedFrozen, nl)
	s.unfrozen = s.unfrozen[:0]
	for i, d := range demands {
		if d <= 0 {
			s.frozen[i] = true
			continue
		}
		s.unfrozen = append(s.unfrozen, int32(i))
		for _, l := range paths[i] {
			s.active[l]++
		}
	}

	// Per-link member lists: start[l] first holds the end of link l's
	// range, and filling back to front leaves it at the range's start with
	// each list in input order.
	s.start = zeroed(s.start, nl+1)
	s.links = s.links[:0]
	end := int32(0)
	for l, a := range s.active {
		end += int32(a)
		s.start[l] = end
		if a > 0 {
			s.links = append(s.links, int32(l))
		}
	}
	s.start[nl] = end
	s.members = zeroed(s.members, int(end))
	for k := len(s.unfrozen) - 1; k >= 0; k-- {
		i := s.unfrozen[k]
		p := paths[i]
		for h := len(p) - 1; h >= 0; h-- {
			s.start[p[h]]--
			s.members[s.start[p[h]]] = i
		}
	}

	level := 0.0
	for len(s.unfrozen) > 0 {
		// Smallest increment to the next freezing event. The freeze pass
		// below re-derives each candidate with the identical expression, so
		// "<= inc" finds exactly the argmin set — no epsilon needed.
		inc := math.Inf(1)
		for _, i := range s.unfrozen {
			if d := demands[i] - level; d < inc {
				inc = d
			}
		}
		for _, l := range s.links {
			if r := (caps[l]-s.usedFrozen[l])/float64(s.active[l]) - level; r < inc {
				inc = r
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		froze := false
		for _, i := range s.unfrozen {
			if demands[i]-level <= inc {
				s.freeze(i, demands[i], paths[i]) // demand-limited: snap exact
				froze = true
			}
		}
		for _, l := range s.links {
			if s.active[l] == 0 {
				continue
			}
			if (caps[l]-s.usedFrozen[l])/float64(s.active[l])-level <= inc {
				for _, i := range s.members[s.start[l]:s.start[l+1]] {
					if !s.frozen[i] {
						s.freeze(i, level+inc, paths[i])
						froze = true
					}
				}
			}
		}
		level += inc
		if !froze {
			// Numerical backstop: freeze everything at the current level.
			for _, i := range s.unfrozen {
				s.freeze(i, level, paths[i])
			}
		}
		s.unfrozen = slices.DeleteFunc(s.unfrozen, func(i int32) bool { return s.frozen[i] })
		s.links = slices.DeleteFunc(s.links, func(l int32) bool { return s.active[l] == 0 })
	}
	return s.alloc
}

func (s *maxMin) freeze(i int32, a float64, path []int) {
	s.frozen[i] = true
	s.alloc[i] = a
	for _, l := range path {
		s.active[l]--
		s.usedFrozen[l] += a
	}
}
