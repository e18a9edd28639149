package drivers

import (
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
	backend[*vhostVif]
	hv    *vmm.Hypervisor
	order []*vhostVif // creation order: deterministic drain sequence

	polls     int64
	idlePolls int64
}

type vhostVif struct {
	dom  *vmm.Domain
	recv *guest.NetReceiver
	// rx is the shared ring the poll thread drains, bounded by
	// model.VhostRingCap.
	rx ring
}

// NewVhost creates the backend and starts its poll-mode thread. The thread
// runs (and burns its core) for the rest of the run: poll mode has no idle
// state.
func NewVhost(hv *vmm.Hypervisor) *Vhost {
	vh := &Vhost{backend: newBackend[*vhostVif]("vhost"), hv: hv}
	sim.NewTicker(hv.Engine(), model.VhostPollInterval, "vhost:poll", vh.poll)
	return vh
}

// AttachWire taps a NIC queue: arriving batches land on the destination
// vif's ring and wait for the next poll round. There is no separate receive
// charge — the pegged poll core is the entire dom0 data-path cost.
func (vh *Vhost) AttachWire(q *nic.Queue) { q.DirectDeliver = vh.Inject }

// AddVif registers a guest ring with the poll thread.
func (vh *Vhost) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	v, err := vh.add(mac, func() (*vhostVif, error) {
		return &vhostVif{dom: dom, recv: recv, rx: ring{cap: model.VhostRingCap}}, nil
	})
	if err == nil {
		vh.order = append(vh.order, v)
	}
	return err
}

// Inject enqueues a batch on its vif's ring; arrivals past the ring's
// capacity drop. Local and wire traffic cost the same here: either way the
// poll thread does the ring work and the copy.
func (vh *Vhost) Inject(b nic.Batch) {
	if v, ok := vh.admit(b); ok {
		v.rx.push(&vh.Ledger, b)
	}
}

// poll is one round of the poll-mode thread: charge the full interval to
// dom0 (the core is pegged regardless of load), then drain rings in vif
// creation order until the round's cycle budget is spent. Leftovers stay on
// the ring for the next round — the budget is the backend's line rate.
func (vh *Vhost) poll(sim.Time) {
	vh.polls++
	budget := model.ServerFreq.CyclesIn(model.VhostPollInterval)
	vh.hv.ChargeDom0(budget)
	remaining := budget
	worked := false
	for _, v := range vh.order {
		r := &v.rx
		if r.count == 0 || remaining <= model.VhostPerRoundCycles {
			continue
		}
		perPktBytes := r.bytes / units.Size(r.count)
		perPkt := model.VhostPerPacketCycles +
			units.Cycles(float64(perPktBytes)*model.VhostCopyCyclesPerByte)
		n := int((remaining - model.VhostPerRoundCycles) / perPkt)
		if n <= 0 {
			continue
		}
		if n > r.count {
			n = r.count
		}
		bytes := perPktBytes * units.Size(n)
		if n == r.count {
			bytes = r.bytes
		}
		r.count -= n
		r.bytes -= bytes
		remaining -= model.VhostPerRoundCycles + units.Cycles(n)*perPkt
		worked = true
		vh.delivered(n)
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
