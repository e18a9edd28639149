package drivers

import (
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
	backend[*swpassVif]
	hv *vmm.Hypervisor
}

type swpassVif struct {
	sp   *SoftPassthrough
	dom  *vmm.Domain
	recv *guest.NetReceiver

	// rx is the guest-mapped ring, bounded by model.SwPassRingCap; packets
	// accumulate on it between coalesced interrupts. fire is its timer
	// callback, created once at AddVif so the steady-state path schedules
	// without allocating.
	rx   ring
	fire func()
}

// swpassIntrInterval is the coalescing window derived from SwPassIntrHz.
const swpassIntrInterval = units.Duration(int64(units.Second) / model.SwPassIntrHz)

// NewSoftPassthrough creates the backend.
func NewSoftPassthrough(hv *vmm.Hypervisor) *SoftPassthrough {
	return &SoftPassthrough{backend: newBackend[*swpassVif]("swpass"), hv: hv}
}

// AttachWire taps a NIC queue: batches land directly on the guest-mapped
// ring — no dom0 receive path, the NIC DMAs into guest buffers.
func (sp *SoftPassthrough) AttachWire(q *nic.Queue) { q.DirectDeliver = sp.Inject }

// AddVif maps the rings into the guest. This is where the backend's dom0
// cost lives: the control path pins and audits the buffer pool once,
// instead of translating on every packet.
func (sp *SoftPassthrough) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	_, err := sp.add(mac, func() (*swpassVif, error) {
		sp.hv.ChargeDom0(model.SwPassVifSetupCycles)
		v := &swpassVif{sp: sp, dom: dom, recv: recv, rx: ring{cap: model.SwPassRingCap}}
		v.fire = v.interrupt
		return v, nil
	})
	return err
}

// Inject enqueues a batch on its vif's ring; arrivals past the ring's
// capacity drop. The first packet landing on an idle ring arms the
// coalescing timer. Local traffic rides the same guest-mapped rings; the
// sender's cost is the sender's problem.
func (sp *SoftPassthrough) Inject(b nic.Batch) {
	v, ok := sp.admit(b)
	if !ok || v.rx.push(&sp.Ledger, b) <= 0 {
		return
	}
	v.rx.arm(sp.hv.Engine(), swpassIntrInterval, "swpass:intr", v.fire)
}

// interrupt delivers everything accumulated on the ring in one coalesced
// completion interrupt. Xen pays the descriptor audit for the batch; the
// guest takes the interrupt and the full burst at once.
func (v *swpassVif) interrupt() {
	b := v.rx.take()
	v.sp.delivered(b.Count)
	v.sp.hv.ChargeXen(v.dom, units.Cycles(b.Count)*model.SwPassPerPacketXenCycles)
	interruptDeliver(v.sp.hv, v.dom, v.recv, b.Count, b.Bytes)
}
