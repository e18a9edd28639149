package drivers

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/interrupts"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Netback is the dom0 half of the Xen PV split driver: it terminates guest
// traffic arriving on the physical NIC, copies packets into guest buffers
// (the cost the paper's PV measurements are dominated by), and kicks the
// guest's netfront over an event channel.
//
// The paper's stock backend is single-threaded ("The existing Xen PV NIC
// driver uses only a single thread in the backend to copy packets, which can
// easily saturate at 100% CPU"); §6.5 enhances it with a thread pool, which
// Threads > 1 models.
type Netback struct {
	backend[*PVNic]
	hv *vmm.Hypervisor
	// jobs are the copy threads serve and LocalTransfer submit to.
	jobs dom0Jobs[*PVNic]
}

// NewNetback creates a backend with the given number of copy threads.
func NewNetback(hv *vmm.Hypervisor, threads int) *Netback {
	nb := &Netback{backend: newBackend[*PVNic]("pv"), hv: hv}
	nb.jobs = dom0Jobs[*PVNic]{
		pool:  cpu.NewPool(hv.Engine(), hv.Meter(), hv.Dom0().Ledger(), threads, model.NetbackQueueCap),
		books: &nb.Ledger,
		land:  nb.copied,
	}
	return nb
}

// AttachWire connects the backend to a NIC queue (normally the PF queue
// with the guests' MACs routed to it): every batch the queue receives is
// bridged into the backend.
func (nb *Netback) AttachWire(q *nic.Queue) {
	q.DirectDeliver = func(b nic.Batch) {
		// dom0's native receive path for the batch.
		nb.hv.ChargeDom0(units.Cycles(b.Count) * model.Dom0BridgePerPacketCycles)
		nb.FromNIC(b)
	}
}

// PVNic is one guest's paravirtual NIC: the netfront half plus its event
// channel. It is also DNIS's hardware-neutral standby interface (§4.4).
type PVNic struct {
	nb   *Netback
	hv   *vmm.Hypervisor
	dom  *vmm.Domain
	mac  nic.MAC
	recv *guest.NetReceiver
	port interrupts.EventChannelPort // PVM path

	// pending carries the batch from deliver to frontendInterrupt (upcalls
	// take no arguments; the ring holds exactly the in-flight batch
	// because the backend kicks once per batch).
	pending nic.Batch

	// rx aggregates arriving packets between backend poll rounds, as the
	// real backend's ring does: the thread serves whatever accumulated, so
	// the per-round fixed cost is paid per poll, not per wire delivery.
	// poll is its timer callback, created once at CreateVif so the
	// steady-state FromNIC path schedules without allocating.
	rx   ring
	poll func()
}

// CreateVif creates the frontend/backend pair for a guest. The receiver's
// per-packet extra is set to the netfront ring cost.
func (nb *Netback) CreateVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) (*PVNic, error) {
	return nb.add(mac, func() (*PVNic, error) {
		v := &PVNic{nb: nb, hv: nb.hv, dom: dom, mac: mac, recv: recv}
		v.poll = func() { nb.serve(v, v.rx.take()) }
		recv.PerPacketExtra = model.NetfrontPerPacketCycles
		if dom.Type == vmm.PVM || dom.Type == vmm.Dom0 {
			port, err := nb.hv.BindEventChannel(dom, fmt.Sprintf("vif-%v", mac), v.frontendInterrupt)
			if err != nil {
				return nil, err
			}
			v.port = port
		}
		return v, nil
	})
}

// AddVif registers a guest (the Datapath-generic form of CreateVif; callers
// needing the *PVNic — bonds, migration — use CreateVif directly).
func (nb *Netback) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	_, err := nb.CreateVif(dom, mac, recv)
	return err
}

// Inject enqueues a host-local batch through the cache-warm local copy path.
func (nb *Netback) Inject(b nic.Batch) { nb.LocalTransfer(b) }

// MAC reports the vif's MAC.
func (v *PVNic) MAC() nic.MAC { return v.mac }

// FromNIC accepts one arriving batch. Packets accumulate per vif and are
// served by a backend thread once per poll interval — so the fixed
// per-round cost is paid at the backend's own granularity.
func (nb *Netback) FromNIC(b nic.Batch) {
	v, ok := nb.admit(b)
	if !ok {
		return
	}
	v.rx.push(&nb.Ledger, b)
	v.rx.arm(nb.hv.Engine(), model.NetbackPollInterval, "netback:poll", v.poll)
}

// serve moves one aggregated batch for vif v through a backend thread: the
// copy work is charged to dom0 and, once complete, the frontend is kicked.
// The cost inflates with the number of active vifs
// (model.PVMultiThreadContention), driving the Fig. 17/18 decline.
func (nb *Netback) serve(v *PVNic, b nic.Batch) {
	contention := 1 + model.PVMultiThreadContention*float64(len(nb.vifs)-1)
	cost := units.Cycles(contention * (float64(model.NetbackPerBatchCycles) +
		float64(b.Count)*float64(model.NetbackPerPacketCycles) +
		float64(b.Bytes)*model.NetbackCopyCyclesPerByte))
	nb.jobs.submit(cost, v, b)
}

// copied completes a batch a backend thread has copied: grant map/copy
// hypercalls for the batch, then the frontend kick.
func (nb *Netback) copied(v *PVNic, b nic.Batch) {
	nb.hv.GuestHypercall(v.dom, model.NetbackGrantHypercallCycles)
	v.deliver(b)
}

// deliver kicks the frontend with a completed batch.
func (v *PVNic) deliver(b nic.Batch) {
	switch v.dom.Type {
	case vmm.PVM:
		v.pending = b
		v.hv.NotifyEvent(v.dom, v.port)
	case vmm.HVM:
		// PV-on-HVM: the event channel is layered on a LAPIC vector
		// (§6.5): dom0 pays the conversion, the guest takes an emulated
		// interrupt with an EOI.
		v.hv.ChargeDom0(model.PVNicHVMInterruptExtra)
		if v.dom.Paused() {
			return
		}
		v.hv.ChargeXen(v.dom, model.ExtIntExitCycles)
		v.hv.ChargeXen(v.dom, v.hv.EOICost())
		v.pending = b
		v.frontendInterrupt()
	default:
		v.pending = b
		v.frontendInterrupt()
	}
}

func (v *PVNic) frontendInterrupt() {
	b := v.pending
	if b.Count == 0 {
		return
	}
	v.pending = nic.Batch{}
	v.recv.OnInterrupt()
	v.recv.DeliverBatch(b.Count, b.Bytes)
}

// GuestTransmit models the guest sending a message out through netfront:
// the guest pays frontend costs, the backend thread pays a memory-to-memory
// copy, and the batch lands in the destination vif. This is the §6.3
// inter-VM PV path: "the packets are directly copied from source VM memory
// to target VM memory by CPU, which operates on system memory in faster
// speed" — hence the cheaper local-copy cost model.
func (v *PVNic) GuestTransmit(sender *guest.NetSender, dst nic.MAC, msgSize, frame units.Size) int {
	pkts := sender.SendMessage(msgSize, frame)
	if pkts == 0 {
		return 0
	}
	// Grant the buffers to dom0.
	v.hv.GuestHypercall(v.dom, model.NetfrontGrantHypercallCycles)
	v.nb.LocalTransfer(nic.Batch{Dst: dst, Count: pkts, Bytes: msgSize})
	return pkts
}

// LocalTransfer moves an inter-VM batch through a backend thread with the
// local (cache-warm) copy costs.
func (nb *Netback) LocalTransfer(b nic.Batch) {
	v, ok := nb.admit(b)
	if !ok {
		return
	}
	cost := units.Cycles(float64(model.PVLocalPerBatchCycles) +
		float64(b.Count)*float64(model.PVLocalPerPacketCycles) +
		float64(b.Bytes)*model.PVLocalCopyCyclesPerByte)
	nb.jobs.submit(cost, v, b)
}

// Backlog reports how many batches are queued in the backend pool — the
// backpressure an inter-VM PV sender sees.
func (nb *Netback) Backlog() int {
	return nb.jobs.pool.QueuedJobs()
}
