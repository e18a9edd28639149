package drivers

import (
	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// VMDqBridge models the §6.6 comparison system: an 82598-class 10 GbE NIC
// with VMDq. The NIC classifies packets into per-VM queue pairs and DMAs
// directly into guest buffers, eliminating the copy — but "it still needs
// VMM intervention for memory protection and address translation" (§1), so
// dom0 pays a per-packet translation cost. The NIC has only
// model.VMDqQueuePairs pairs; one belongs to dom0, so at most
// model.VMDqGuestQueues guests get queue service, and the rest fall back to
// the conventional copying PV path ("Once the VM# exceeds 7, the rest of
// the VMs share the network with domain 0, as the conventional PV NIC
// driver does").
type VMDqBridge struct {
	backend[*vmdqVif]
	hv *vmm.Hypervisor
	// jobs are the dom0 threads doing protection/translation.
	jobs       dom0Jobs[*vmdqVif]
	fallback   *Netback
	queuesUsed int
}

type vmdqVif struct {
	pv       *PVNic // event-channel plumbing; also the fallback vif
	hasQueue bool
}

// NewVMDqBridge creates the bridge with dom0 service threads and a fallback
// netback sharing the thread count.
func NewVMDqBridge(hv *vmm.Hypervisor, threads int) *VMDqBridge {
	br := &VMDqBridge{backend: newBackend[*vmdqVif]("vmdq"), hv: hv}
	br.jobs = dom0Jobs[*vmdqVif]{
		pool:  cpu.NewPool(hv.Engine(), hv.Meter(), hv.Dom0().Ledger(), threads, model.NetbackQueueCap),
		books: &br.Ledger,
		land:  br.translated,
	}
	br.fallback = NewNetback(hv, threads)
	return br
}

// AttachWire connects the bridge to the NIC queue carrying guest traffic.
func (br *VMDqBridge) AttachWire(q *nic.Queue) {
	q.DirectDeliver = func(b nic.Batch) {
		br.hv.ChargeDom0(units.Cycles(b.Count) * model.VMDqDemuxPerPacketCycles)
		br.FromNIC(b)
	}
}

// AddVif adds a guest. The first model.VMDqGuestQueues guests get a
// dedicated queue pair; later guests ride the fallback PV path.
func (br *VMDqBridge) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	_, err := br.add(mac, func() (*vmdqVif, error) {
		pv, err := br.fallback.CreateVif(dom, mac, recv)
		if err != nil {
			return nil, err
		}
		v := &vmdqVif{pv: pv}
		if br.queuesUsed < model.VMDqGuestQueues {
			v.hasQueue = true
			br.queuesUsed++
		}
		return v, nil
	})
	return err
}

// Inject enqueues a host-local batch through the bridge's classify path.
func (br *VMDqBridge) Inject(b nic.Batch) { br.FromNIC(b) }

// Fallback exposes the bridge's copying fallback backend (audited alongside
// the bridge itself).
func (br *VMDqBridge) Fallback() *Netback { return br.fallback }

// FromNIC routes a batch: queue-owning guests get the no-copy path (dom0
// pays protection/translation only), the rest go through the copying
// fallback. A batch handed to the fallback counts as delivered here; the
// fallback Netback keeps its own ledger from that point on.
func (br *VMDqBridge) FromNIC(b nic.Batch) {
	v, ok := br.admit(b)
	if !ok {
		return
	}
	if !v.hasQueue {
		br.delivered(b.Count)
		br.fallback.FromNIC(b)
		return
	}
	br.jobs.submit(units.Cycles(b.Count)*model.VMDqPerPacketDom0Cycles, v, b)
}

// translated completes a queued batch once dom0 has done its protection
// and translation work: the guest is kicked, with no copy.
func (br *VMDqBridge) translated(v *vmdqVif, b nic.Batch) { v.pv.deliver(b) }
