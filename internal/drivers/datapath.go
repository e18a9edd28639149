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

// Datapath is the contract of a software backend: a packet path between the
// wire and a guest that runs in host software — PV split driver, VMDq,
// vhost poll-mode, OVS-style flow-cache switch, software passthrough — so
// figures and invariant audits pick a backend by name instead of
// hard-coding types. The hardware path (a VF driver) is not one: the NIC
// classifies and DMAs straight into the guest, and the chaos audit holds
// its receive ring to the ring-conservation identity instead.
type Datapath interface {
	// Kind is the stable backend name: "pv", "vmdq", "vhost", "ovs" or
	// "swpass". Observability counters use it as dp.<kind>.* and the NFV
	// figures as series labels.
	Kind() string
	// Stats snapshots the backend's conservation ledger.
	Stats() Ledger
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

// Compile-time backend contract checks.
var (
	_ Datapath = (*Netback)(nil)
	_ Datapath = (*VMDqBridge)(nil)
	_ Datapath = (*Vhost)(nil)
	_ Datapath = (*OVSSwitch)(nil)
	_ Datapath = (*SoftPassthrough)(nil)
)

// Ledger is a backend's conservation ledger. The identity audited by
// internal/chaos after every experiment:
//
//	Received == Delivered + Dropped + InFlight
//
// with InFlight drained to zero once the engine settles. Received counts
// packets accepted into the backend (not offered load — wire-level drops
// upstream of acceptance are the NIC's to account), Delivered packets handed
// to a guest, Dropped packets the backend discarded (no vif, ring or thread
// queue overrun), InFlight packets still inside the pipeline.
type Ledger struct {
	Received  int64
	Delivered int64
	Dropped   int64
	InFlight  int64
}

// Stats snapshots the ledger.
func (l *Ledger) Stats() Ledger { return *l }

// delivered moves n in-flight packets to Delivered.
func (l *Ledger) delivered(n int) {
	l.Delivered += int64(n)
	l.InFlight -= int64(n)
}

// lost moves n in-flight packets to Dropped.
func (l *Ledger) lost(n int) {
	l.Dropped += int64(n)
	l.InFlight -= int64(n)
}

// backend is the skeleton every software datapath embeds: its kind, its
// ledger and its vif table. Vifs are never removed.
type backend[V any] struct {
	Ledger
	kind string
	vifs map[nic.MAC]V
}

func newBackend[V any](kind string) backend[V] {
	return backend[V]{kind: kind, vifs: make(map[nic.MAC]V)}
}

// Kind reports the backend name.
func (t *backend[V]) Kind() string { return t.kind }

// add registers the vif mk builds under mac. A MAC that already has a vif
// is refused before mk runs, so a refused add changes nothing.
func (t *backend[V]) add(mac nic.MAC, mk func() (V, error)) (V, error) {
	if _, dup := t.vifs[mac]; dup {
		var none V
		return none, fmt.Errorf("drivers: MAC %v already has a %s vif", mac, t.kind)
	}
	v, err := mk()
	if err != nil {
		return v, err
	}
	t.vifs[mac] = v
	return v, nil
}

// admit accepts batch b into the ledger: its packets are in flight toward
// the vif it reports, or dropped if no vif has b's destination MAC.
func (t *backend[V]) admit(b nic.Batch) (V, bool) {
	t.Received += int64(b.Count)
	v, ok := t.vifs[b.Dst]
	if !ok {
		t.Dropped += int64(b.Count)
		return v, false
	}
	t.InFlight += int64(b.Count)
	return v, true
}

// ring is one vif's receive ring in host software: admitted packets
// accumulate on it until the backend services them.
type ring struct {
	count int        // packets waiting
	bytes units.Size // their total size
	cap   int        // bound on count; 0 leaves the ring unbounded
	armed bool       // a service timer is pending
}

// push adds admitted batch b, dropping into l the tail a bounded ring has
// no room for, and reports how many packets it kept.
func (r *ring) push(l *Ledger, b nic.Batch) int {
	n, bytes := b.Count, b.Bytes
	if room := r.cap - r.count; r.cap > 0 && n > room {
		l.lost(n - room)
		bytes = bytes / units.Size(n) * units.Size(room)
		n = room
	}
	r.count += n
	r.bytes += bytes
	return n
}

// arm schedules fire after d unless a service timer is already pending:
// the first arrival since the last take arms it.
func (r *ring) arm(eng *sim.Engine, d units.Duration, name string, fire func()) {
	if !r.armed {
		r.armed = true
		eng.After(d, name, fire)
	}
}

// take empties the ring and disarms it, returning what accumulated.
func (r *ring) take() nic.Batch {
	b := nic.Batch{Count: r.count, Bytes: r.bytes}
	*r = ring{cap: r.cap}
	return b
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
