package drivers

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// SoftPassthrough is a software-only passthrough: the device rings are
// mapped straight into the guest, so — like SR-IOV — no dom0 thread touches
// packet data and nothing is copied. Unlike SR-IOV there is no IOMMU on the
// data path: isolation comes from the hypervisor auditing ring descriptors
// against the guest's pinned buffer region, a small per-packet Xen charge
// (model.SwPassPerPacketXenCycles) amortized over each coalesced interrupt.
// dom0 appears only on the control path, paying model.SwPassVifSetupCycles
// once per vif to map, pin, and audit the rings.
//
// Completion reaches the guest through a coalesced interrupt at
// model.SwPassIntrHz: the first packet landing on an idle ring arms the
// timer, everything that accumulates until it fires is delivered in one
// interrupt. Heavy coalescing keeps exit overhead low but hands the guest
// large bursts — past the socket burst capacity they overflow, the loss
// shape fig27 measures.
type SoftPassthrough struct {
	hv *vmm.Hypervisor

	vifs map[nic.MAC]*swpassVif

	// Conservation counters (audited): Received == Delivered + Dropped +
	// InFlight, InFlight being packets ringed but not yet interrupted.
	Received  int64
	Delivered int64
	Dropped   int64
	inflight  int64
}

type swpassVif struct {
	sp   *SoftPassthrough
	dom  *vmm.Domain
	recv *guest.NetReceiver

	// ring accumulates packets between coalesced interrupts; armed tracks
	// the pending delivery timer. fire is created once at AddVif so the
	// steady-state path schedules without allocating.
	ring  nic.Batch
	armed bool
	fire  func()
}

// swpassIntrInterval is the coalescing window derived from SwPassIntrHz.
const swpassIntrInterval = units.Duration(int64(units.Second) / model.SwPassIntrHz)

// NewSoftPassthrough creates the backend.
func NewSoftPassthrough(hv *vmm.Hypervisor) *SoftPassthrough {
	return &SoftPassthrough{hv: hv, vifs: make(map[nic.MAC]*swpassVif)}
}

// Kind reports the backend name of the software passthrough path.
func (sp *SoftPassthrough) Kind() string { return "swpass" }

// Stats snapshots the conservation counters.
func (sp *SoftPassthrough) Stats() DatapathStats {
	return DatapathStats{Received: sp.Received, Delivered: sp.Delivered,
		Dropped: sp.Dropped, InFlight: sp.inflight}
}

// AttachWire taps a NIC queue: batches land directly on the guest-mapped
// ring — no dom0 receive path, the NIC DMAs into guest buffers.
func (sp *SoftPassthrough) AttachWire(q *nic.Queue) {
	q.DirectDeliver = func(b nic.Batch) { sp.enqueue(b) }
}

// AddVif maps the rings into the guest. This is where the backend's dom0
// cost lives: the control path pins and audits the buffer pool once,
// instead of translating on every packet.
func (sp *SoftPassthrough) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	if _, dup := sp.vifs[mac]; dup {
		return fmt.Errorf("drivers: MAC %v already has a passthrough vif", mac)
	}
	sp.hv.ChargeDom0(model.SwPassVifSetupCycles)
	v := &swpassVif{sp: sp, dom: dom, recv: recv}
	v.fire = v.interrupt
	sp.vifs[mac] = v
	return nil
}

// Inject enqueues a host-local batch. Local traffic rides the same
// guest-mapped rings; the sender's cost is the sender's problem.
func (sp *SoftPassthrough) Inject(b nic.Batch) { sp.enqueue(b) }

func (sp *SoftPassthrough) enqueue(b nic.Batch) {
	sp.Received += int64(b.Count)
	v, ok := sp.vifs[b.Dst]
	if !ok {
		sp.Dropped += int64(b.Count)
		return
	}
	n, bytes := b.Count, b.Bytes
	if room := model.SwPassRingCap - v.ring.Count; n > room {
		drop := n - room
		sp.Dropped += int64(drop)
		bytes = bytes / units.Size(n) * units.Size(room)
		n = room
	}
	if n <= 0 {
		return
	}
	sp.inflight += int64(n)
	v.ring.Count += n
	v.ring.Bytes += bytes
	if !v.armed {
		v.armed = true
		sp.hv.Engine().After(swpassIntrInterval, "swpass:intr", v.fire)
	}
}

// interrupt delivers everything accumulated on the ring in one coalesced
// completion interrupt. Xen pays the descriptor audit for the batch; the
// guest takes the interrupt and the full burst at once.
func (v *swpassVif) interrupt() {
	v.armed = false
	b := v.ring
	if b.Count == 0 {
		return
	}
	v.ring = nic.Batch{}
	v.sp.Delivered += int64(b.Count)
	v.sp.inflight -= int64(b.Count)
	v.sp.hv.ChargeXen(v.dom, units.Cycles(b.Count)*model.DatapathCostTable(v.sp.Kind()).PerPacket)
	interruptDeliver(v.sp.hv, v.dom, v.recv, b.Count, b.Bytes)
}
