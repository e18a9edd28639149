package drivers

import (
	"container/list"

	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// FlowKey identifies one exact-match flow in the kernel cache: the megaflow
// key collapsed to the fields this model classifies on.
type FlowKey struct {
	Src  nic.MAC
	Dst  nic.MAC
	VLAN uint16
}

// FlowCache is the OVS-style exact-match kernel flow cache: a bounded LRU
// of installed flows with idle-timeout expiry. It is deliberately free of
// any engine dependency — time is passed in — so the fuzz harness can
// exercise lookup/insert/expiry/eviction interleavings directly.
type FlowCache struct {
	cap     int
	idle    units.Duration
	entries map[FlowKey]*list.Element
	lru     *list.List // front = most recently used
}

type flowEntry struct {
	key  FlowKey
	last units.Time // last hit (or install) time
}

// NewFlowCache creates a cache holding at most cap flows, expiring flows
// idle longer than idle. A non-positive cap means a single-entry cache.
func NewFlowCache(cap int, idle units.Duration) *FlowCache {
	if cap <= 0 {
		cap = 1
	}
	return &FlowCache{
		cap:     cap,
		idle:    idle,
		entries: make(map[FlowKey]*list.Element),
		lru:     list.New(),
	}
}

// Lookup reports whether the flow is installed and fresh at time now. A hit
// refreshes the flow's idle timer and recency; an expired entry is removed
// and reported as a miss.
func (fc *FlowCache) Lookup(k FlowKey, now units.Time) bool {
	el, ok := fc.entries[k]
	if !ok {
		return false
	}
	e := el.Value.(*flowEntry)
	if fc.idle > 0 && now-e.last > units.Time(fc.idle) {
		// Idle age-out: the datapath would have reaped this flow already.
		fc.lru.Remove(el)
		delete(fc.entries, k)
		return false
	}
	e.last = now
	fc.lru.MoveToFront(el)
	return true
}

// Insert installs (or refreshes) a flow at time now, evicting the least
// recently used flow if the cache is full.
func (fc *FlowCache) Insert(k FlowKey, now units.Time) {
	if el, ok := fc.entries[k]; ok {
		el.Value.(*flowEntry).last = now
		fc.lru.MoveToFront(el)
		return
	}
	for fc.lru.Len() >= fc.cap {
		back := fc.lru.Back()
		fc.lru.Remove(back)
		delete(fc.entries, back.Value.(*flowEntry).key)
	}
	fc.entries[k] = fc.lru.PushFront(&flowEntry{key: k, last: now})
}

// OVSSwitch is an OVS-style flow-caching software switch: arriving batches
// are classified against the exact-match FlowCache. A hit takes the kernel
// fast path — a datapath thread pays per-packet match + copy cost and
// interrupts the guest. A miss takes the upcall path: dom0 pays the full
// userspace classification (model.OVSUpcallCycles, two orders of magnitude
// above a hit), the batch waits out model.OVSUpcallLatency, and the flow is
// installed so later packets hit. The hit/miss cost split is the backend's
// defining shape: steady flows run near vhost speed, flow churn collapses
// to upcall throughput.
type OVSSwitch struct {
	backend[*ovsVif]
	hv    *vmm.Hypervisor
	jobs  dom0Jobs[*ovsVif] // kernel datapath threads
	cache *FlowCache
}

type ovsVif struct {
	dom  *vmm.Domain
	recv *guest.NetReceiver
}

// NewOVSSwitch creates the switch with model.OVSThreads datapath threads
// and an empty flow cache.
func NewOVSSwitch(hv *vmm.Hypervisor) *OVSSwitch {
	sw := &OVSSwitch{backend: newBackend[*ovsVif]("ovs"), hv: hv}
	sw.jobs = dom0Jobs[*ovsVif]{
		pool:  cpu.NewPool(hv.Engine(), hv.Meter(), hv.Dom0().Ledger(), model.OVSThreads, model.NetbackQueueCap),
		books: &sw.Ledger,
		land:  sw.switched,
	}
	sw.cache = NewFlowCache(model.OVSFlowCacheCapacity, model.OVSFlowIdleTimeout)
	return sw
}

// AttachWire taps a NIC queue: dom0 pays the native receive path, then the
// batch enters classification.
func (sw *OVSSwitch) AttachWire(q *nic.Queue) {
	q.DirectDeliver = func(b nic.Batch) {
		sw.hv.ChargeDom0(units.Cycles(b.Count) * model.Dom0BridgePerPacketCycles)
		sw.Inject(b)
	}
}

// AddVif registers a guest port on the switch.
func (sw *OVSSwitch) AddVif(dom *vmm.Domain, mac nic.MAC, recv *guest.NetReceiver) error {
	_, err := sw.add(mac, func() (*ovsVif, error) { return &ovsVif{dom: dom, recv: recv}, nil })
	return err
}

// Inject classifies a batch against the flow cache (service-chain hops
// churn or hit the cache exactly like wire traffic).
func (sw *OVSSwitch) Inject(b nic.Batch) {
	v, ok := sw.admit(b)
	if !ok {
		return
	}
	key := FlowKey{Src: b.Src, Dst: b.Dst, VLAN: b.VLAN}
	now := sw.hv.Engine().Now()
	if sw.cache.Lookup(key, now) {
		sw.hv.Obs.Counter("dp.ovs.cache_hits").Inc()
		sw.fastPath(v, b)
		return
	}
	// Miss: queue to userspace. ovs-vswitchd classifies, installs the
	// flow, and re-injects the batch one upcall latency later. Every miss
	// pays the full upcall — batches of one flow arriving before the
	// install complete each upcall again, which is exactly the churn
	// collapse the figure measures.
	sw.hv.Obs.Counter("dp.ovs.cache_misses").Inc()
	sw.hv.ChargeDom0(model.OVSUpcallCycles)
	sw.hv.Engine().After(model.OVSUpcallLatency, "ovs:upcall", func() {
		sw.cache.Insert(key, sw.hv.Engine().Now())
		sw.fastPath(v, b)
	})
}

// fastPath runs one batch through a kernel datapath thread, which then
// interrupts the destination guest.
func (sw *OVSSwitch) fastPath(v *ovsVif, b nic.Batch) {
	cost := model.OVSPerBatchCycles +
		units.Cycles(b.Count)*model.OVSHitPerPacketCycles +
		units.Cycles(float64(b.Bytes)*model.OVSCopyCyclesPerByte)
	sw.jobs.submit(cost, v, b)
}

// switched completes a batch a kernel datapath thread has forwarded.
func (sw *OVSSwitch) switched(v *ovsVif, b nic.Batch) {
	interruptDeliver(sw.hv, v.dom, v.recv, b.Count, b.Bytes)
}
