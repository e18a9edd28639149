package drivers

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Vhost is a vhost-style shared-ring datapath: a dom0 poll-mode thread that
// never sleeps and never raises interrupts. Every model.VhostPollInterval it
// scans all vifs' rings in creation order and drains what accumulated, up to
// the cycle budget of one interval on one core. The core is pegged — dom0 is
// charged the full interval every round whether or not packets arrived — and
// in exchange the data path has no interrupt cost anywhere: the backend
// polls its rings and the guest polls its own ring tail.
//
// The capacity limit is the poll budget, not a queue depth: packets that
// don't fit in a round stay on the ring (InFlight) for the next one, and a
// ring past model.VhostRingCap drops. dp.vhost.poll_idle_frac reports the
// fraction of rounds that found no work — the price of the pegged core made
// visible.
type Vhost struct {
	hv *vmm.Hypervisor

	vifs  map[nic.MAC]*vhostVif
	order []*vhostVif // creation order: deterministic drain sequence

	// Conservation counters (audited): Received == Delivered + Dropped +
	// InFlight, with InFlight the packets still sitting on vif rings.
	Received  int64
	Delivered int64
	Dropped   int64
	inflight  int64

	polls     int64
	idlePolls int64
}

type vhostVif struct {
	dom  *vmm.Domain
	recv *guest.NetReceiver

	// ring accumulates packets between poll rounds (the shared ring the
	// poll thread drains). Count is bounded by model.VhostRingCap.
	ring nic.Batch
}

// NewVhost creates the backend and starts its poll-mode thread. The thread
// runs (and burns its core) for the rest of the run: poll mode has no idle
// state.
func NewVhost(hv *vmm.Hypervisor) *Vhost {
	vh := &Vhost{hv: hv, vifs: make(map[nic.MAC]*vhostVif)}
	sim.NewTicker(hv.Engine(), model.VhostPollInterval, "vhost:poll", vh.poll)
	return vh
}

// Kind reports the backend name of the vhost poll-mode path.
func (vh *Vhost) Kind() string { return "vhost" }

// Stats snapshots the conservation counters.
func (vh *Vhost) Stats() DatapathStats {
	return DatapathStats{Received: vh.Received, Delivered: vh.Delivered,
		Dropped: vh.Dropped, InFlight: vh.inflight}
}

// AttachWire taps a NIC queue: arriving batches land on the destination
// vif's ring and wait for the next poll round. There is no separate receive
// charge — the pegged poll core is the entire dom0 data-path cost.
func (vh *Vhost) AttachWire(q *nic.Queue) {
	q.DirectDeliver = func(b nic.Batch) { vh.enqueue(b) }
}

// AddVif registers a guest ring with the poll thread.
func (vh *Vhost) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	if _, dup := vh.vifs[mac]; dup {
		return fmt.Errorf("drivers: MAC %v already has a vhost vif", mac)
	}
	v := &vhostVif{dom: dom, recv: recv}
	vh.vifs[mac] = v
	vh.order = append(vh.order, v)
	return nil
}

// Inject enqueues a host-local batch. Local and wire traffic cost the same
// here: either way the poll thread does the ring work and the copy.
func (vh *Vhost) Inject(b nic.Batch) { vh.enqueue(b) }

func (vh *Vhost) enqueue(b nic.Batch) {
	vh.Received += int64(b.Count)
	v, ok := vh.vifs[b.Dst]
	if !ok {
		vh.Dropped += int64(b.Count)
		return
	}
	n, bytes := b.Count, b.Bytes
	if room := model.VhostRingCap - v.ring.Count; n > room {
		// Ring overflow: the tail of the batch has no descriptors.
		drop := n - room
		vh.Dropped += int64(drop)
		bytes = bytes / units.Size(n) * units.Size(room)
		n = room
	}
	if n <= 0 {
		return
	}
	vh.inflight += int64(n)
	v.ring.Count += n
	v.ring.Bytes += bytes
}

// poll is one round of the poll-mode thread: charge the full interval to
// dom0 (the core is pegged regardless of load), then drain rings in vif
// creation order until the round's cycle budget is spent. Leftovers stay on
// the ring for the next round — the budget is the backend's line rate.
func (vh *Vhost) poll(sim.Time) {
	vh.polls++
	budget := model.ServerFreq.CyclesIn(model.VhostPollInterval)
	vh.hv.ChargeDom0(budget)
	costs := model.DatapathCostTable(vh.Kind())
	remaining := budget
	worked := false
	for _, v := range vh.order {
		if v.ring.Count == 0 || remaining <= costs.PerBatch {
			continue
		}
		perPktBytes := v.ring.Bytes / units.Size(v.ring.Count)
		perPkt := costs.PerPacket +
			units.Cycles(float64(perPktBytes)*costs.PerByte)
		n := int((remaining - costs.PerBatch) / perPkt)
		if n <= 0 {
			continue
		}
		if n > v.ring.Count {
			n = v.ring.Count
		}
		bytes := perPktBytes * units.Size(n)
		if n == v.ring.Count {
			bytes = v.ring.Bytes
		}
		v.ring.Count -= n
		v.ring.Bytes -= bytes
		remaining -= costs.PerBatch + units.Cycles(n)*perPkt
		worked = true
		vh.Delivered += int64(n)
		vh.inflight -= int64(n)
		v.deliver(n, bytes)
	}
	if !worked {
		vh.idlePolls++
	}
	vh.hv.Obs.Gauge("dp.vhost.poll_idle_frac").Set(float64(vh.idlePolls) / float64(vh.polls))
}

// deliver hands drained packets to the guest's polling receive loop: no
// interrupt, just stack cost, consumed in rx bursts so a large drain never
// overruns the socket the way one giant coalesced interrupt would.
func (v *vhostVif) deliver(n int, bytes units.Size) {
	if v.dom.Paused() {
		return
	}
	burst := model.VhostGuestPollBurst
	if v.recv.Burst > 0 && burst > v.recv.Burst {
		burst = v.recv.Burst
	}
	for n > 0 {
		c := burst
		if c > n {
			c = n
		}
		cb := bytes / units.Size(n) * units.Size(c)
		if c == n {
			cb = bytes
		}
		v.recv.DeliverBatch(c, cb)
		n -= c
		bytes -= cb
	}
}
