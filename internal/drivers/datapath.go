package drivers

import (
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// DatapathStats is the conservation-counter snapshot every backend exposes.
// The identity audited by internal/chaos after every experiment:
//
//	Received == Delivered + Dropped + InFlight
//
// with InFlight drained to zero once the engine settles. Received counts
// packets accepted into the backend (not offered load — wire-level drops
// upstream of acceptance are the NIC's to account), Delivered packets handed
// to a guest, Dropped packets the backend discarded (no vif, queue overrun,
// destroyed vif), InFlight packets still inside the pipeline.
type DatapathStats struct {
	Received  int64
	Delivered int64
	Dropped   int64
	InFlight  int64
}

// Datapath is the backend contract: every packet path between the wire and
// a guest — hardware VF, PV split driver, VMDq, vhost poll-mode, OVS-style
// flow-cache switch, software passthrough — implements it, so figures and
// invariant audits pick a backend by name instead of hard-coding types.
//
// The contract abstracts two things: how RX work is enqueued toward the
// guest (AttachWire / Inject on software backends, NIC classification for
// hardware ones) and the conservation counters (Stats) the chaos audit
// holds every backend to. Per-backend cycle costs live in internal/model's datapath cost table,
// keyed by Kind.
type Datapath interface {
	// Kind is the stable backend name: "vf", "pv", "vmdq", "vhost", "ovs"
	// or "swpass". Observability counters use it as dp.<kind>.* and the
	// NFV figures as series labels.
	Kind() string
	// Stats snapshots the conservation counters.
	Stats() DatapathStats
}

// SoftwareDatapath is a Datapath that terminates guest traffic in host
// software: it owns a vif table, taps a NIC queue for wire ingress, and
// accepts host-local batches (inter-VM traffic, service-chain hops).
type SoftwareDatapath interface {
	Datapath
	// AttachWire taps a NIC queue (normally the PF queue carrying the
	// guests' MACs): every batch the queue receives is bridged into the
	// backend instead of entering the ring.
	AttachWire(q *nic.Queue)
	// AddVif registers a guest with the backend under the given MAC.
	AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error
	// Inject enqueues a host-local batch — traffic that never crossed the
	// wire, such as a service-chain hop or inter-VM send — using the
	// backend's local-path cost model.
	Inject(b nic.Batch)
}

// interruptDeliver is the shared guest-notification tail for interrupt-mode
// software backends: the external-interrupt exit, the (virtualized) EOI, the
// guest ISR, then the batch through the stack. Paused guests take nothing —
// matching the PV path, the packets were already counted delivered when the
// backend finished its work.
func interruptDeliver(hv *vmm.Hypervisor, dom *vmm.Domain, recv *guest.NetReceiver, n int, bytes units.Size) {
	if dom.Paused() {
		return
	}
	hv.ChargeXen(dom, model.ExtIntExitCycles)
	hv.ChargeXen(dom, hv.EOICost())
	recv.OnInterrupt()
	recv.DeliverBatch(n, bytes)
}

// Compile-time backend contract checks.
var (
	_ SoftwareDatapath = (*Netback)(nil)
	_ SoftwareDatapath = (*VMDqBridge)(nil)
	_ SoftwareDatapath = (*Vhost)(nil)
	_ SoftwareDatapath = (*OVSSwitch)(nil)
	_ SoftwareDatapath = (*SoftPassthrough)(nil)
	_ Datapath         = (*VFDriver)(nil)
)

// ---- VFDriver's Datapath view ----
//
// The VF is the hardware path: the NIC classifies and DMAs straight into
// guest memory, so the driver's conservation counters are its receive
// ring's. The identity is the same one the per-queue ring-conservation
// audit enforces: accepted == drained + still-in-ring + wiped-by-reset.

// Kind reports the backend name of the SR-IOV hardware path.
func (d *VFDriver) Kind() string { return "vf" }

// Stats maps the VF ring counters onto the backend conservation identity.
func (d *VFDriver) Stats() DatapathStats {
	s := d.queue.Stats
	return DatapathStats{
		Received:  s.RxPackets,
		Delivered: s.Drained,
		Dropped:   s.ResetDropped,
		InFlight:  int64(d.queue.Occupied()),
	}
}

// ---- Netback's Datapath view ----

// Kind reports the backend name of the PV split-driver path.
func (nb *Netback) Kind() string { return "pv" }

// Stats snapshots the backend conservation counters.
func (nb *Netback) Stats() DatapathStats {
	return DatapathStats{Received: nb.Received, Delivered: nb.Delivered,
		Dropped: nb.Dropped, InFlight: nb.inflight}
}

// AddVif registers a guest (the Datapath-generic form of CreateVif; callers
// needing the *PVNic — bonds, migration — use CreateVif directly).
func (nb *Netback) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	_, err := nb.CreateVif(dom, mac, recv)
	return err
}

// Inject enqueues a host-local batch through the cache-warm local copy path.
func (nb *Netback) Inject(b nic.Batch) { nb.LocalTransfer(b) }

// ---- VMDqBridge's Datapath view ----

// Kind reports the backend name of the VMDq path.
func (br *VMDqBridge) Kind() string { return "vmdq" }

// Stats snapshots the bridge conservation counters. Packets handed to the
// copying fallback count as delivered here; the fallback Netback keeps its
// own books from that point on.
func (br *VMDqBridge) Stats() DatapathStats {
	return DatapathStats{Received: br.Received,
		Delivered: br.DeliveredQueued + br.DeliveredFallback,
		Dropped:   br.Dropped, InFlight: br.inflight}
}

// Inject enqueues a host-local batch through the bridge's classify path.
func (br *VMDqBridge) Inject(b nic.Batch) { br.FromNIC(b) }

// Fallback exposes the bridge's copying fallback backend (audited alongside
// the bridge itself).
func (br *VMDqBridge) Fallback() *Netback { return br.fallback }
