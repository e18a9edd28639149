package drivers

import (
	"fmt"

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
	hv       *vmm.Hypervisor
	pool     *cpu.Pool // dom0 threads doing protection/translation
	fallback *Netback

	vifs       map[nic.MAC]*vmdqVif
	queuesUsed int
	jobs       dom0Jobs[*vmdqVif]

	// Received counts every packet entering the bridge; DeliveredQueued /
	// DeliveredFallback split traffic by path. Conservation identity:
	// Received == DeliveredQueued + DeliveredFallback + Dropped + InFlight.
	Received          int64
	DeliveredQueued   int64
	DeliveredFallback int64
	Dropped           int64
	inflight          int64
}

type vmdqVif struct {
	pv       *PVNic // event-channel plumbing; also the fallback vif
	hasQueue bool
}

// NewVMDqBridge creates the bridge with dom0 service threads and a fallback
// netback sharing the thread count.
func NewVMDqBridge(hv *vmm.Hypervisor, threads int) *VMDqBridge {
	br := &VMDqBridge{
		hv:       hv,
		pool:     cpu.NewPool(hv.Engine(), hv.Meter(), hv.Dom0().Ledger(), threads, netbackQueueCap),
		fallback: NewNetback(hv, threads),
		vifs:     make(map[nic.MAC]*vmdqVif),
	}
	br.jobs.land = br.translated
	return br
}

// AttachWire connects the bridge to the NIC queue carrying guest traffic.
func (br *VMDqBridge) AttachWire(q *nic.Queue) {
	q.DirectDeliver = func(b nic.Batch) {
		br.hv.ChargeDom0(units.Cycles(b.Count) * 300) // queue demux is cheap
		br.FromNIC(b)
	}
}

// AddVif adds a guest. The first model.VMDqGuestQueues guests get a
// dedicated queue pair; later guests ride the fallback PV path.
func (br *VMDqBridge) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	if _, dup := br.vifs[mac]; dup {
		return fmt.Errorf("drivers: MAC %v already registered", mac)
	}
	pv, err := br.fallback.CreateVif(dom, mac, recv)
	if err != nil {
		return err
	}
	v := &vmdqVif{pv: pv}
	if br.queuesUsed < model.VMDqGuestQueues {
		v.hasQueue = true
		br.queuesUsed++
	}
	br.vifs[mac] = v
	return nil
}

// FromNIC routes a batch: queue-owning guests get the no-copy path (dom0
// pays protection/translation only), the rest go through the copying
// fallback.
func (br *VMDqBridge) FromNIC(b nic.Batch) {
	br.Received += int64(b.Count)
	v, ok := br.vifs[b.Dst]
	if !ok {
		br.Dropped += int64(b.Count)
		return
	}
	if !v.hasQueue {
		br.DeliveredFallback += int64(b.Count)
		br.fallback.FromNIC(b)
		return
	}
	br.inflight += int64(b.Count)
	cost := units.Cycles(b.Count) * model.VMDqPerPacketDom0Cycles
	if !br.jobs.submit(br.pool, cost, v, b) {
		br.Dropped += int64(b.Count)
		br.inflight -= int64(b.Count)
	}
}

// translated completes a queued batch once dom0 has done its protection
// and translation work: the guest is kicked, with no copy.
func (br *VMDqBridge) translated(v *vmdqVif, b nic.Batch) {
	br.DeliveredQueued += int64(b.Count)
	br.inflight -= int64(b.Count)
	v.pv.deliver(b)
}
