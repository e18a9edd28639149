package model

import "repro/internal/units"

// ---- dom0 software datapaths ----
//
// The paper benchmarks SR-IOV against two dom0 software paths, Xen's PV
// split driver (§6.5) and VMDq (§6.6); the NFV comparison family adds three
// more: a vhost-style poll-mode shared ring, an OVS-style flow-caching
// software switch, and a software-only passthrough. Every cycle those
// backends charge is a named constant here, read directly by its backend in
// internal/drivers. The emergent fig13–fig19, fig26 and fig27 shapes are
// asserted by internal/experiments.

// ---- PV split driver (netfront/netback) ----

const (
	// NetbackPerPacketCycles is dom0's fixed per-packet cost in the
	// backend: grant map/unmap or grant-copy bookkeeping, ring handling.
	NetbackPerPacketCycles units.Cycles = 2600

	// NetbackCopyCyclesPerByte is the CPU data-copy cost per byte
	// (including the cache misses of touching cold packet data).
	// Calibrated against §6.5: one saturated netback thread peaks at
	// 3.6 Gbps, i.e. 2.8e9 cycles ≈ 450 MB/s × (copy/byte) + 296 kpps ×
	// per-packet → ~4.5 cycles/byte with the 2600-cycle per-packet cost.
	NetbackCopyCyclesPerByte = 4.5

	// NetfrontPerPacketCycles is the guest-side frontend cost per packet
	// on top of normal stack processing (ring + grant negotiation).
	NetfrontPerPacketCycles units.Cycles = 1800

	// NetbackPerBatchCycles is the fixed cost of one backend service round
	// (ring kick, event signalling, scheduling); with many guests the
	// batches shrink and this term grows, one driver of the Fig. 17/18
	// decline.
	NetbackPerBatchCycles units.Cycles = 6000

	// NetbackPollInterval is the backend service granularity: packets
	// arriving for a vif accumulate and one backend thread serves them
	// this long after the first arrival.
	NetbackPollInterval = 250 * units.Microsecond

	// NetbackQueueCap bounds the batches queued per dom0 backend thread
	// (netback, VMDq and OVS pools); beyond it the bridge drops — the PV
	// throughput collapse under overload.
	NetbackQueueCap = 64

	// Dom0BridgePerPacketCycles is dom0's native-driver + bridge cost per
	// packet before netback or the OVS classifier (NAPI receive on the PF,
	// bridge lookup).
	Dom0BridgePerPacketCycles units.Cycles = 900

	// NetbackGrantHypercallCycles is the grant map/copy hypercall the
	// backend issues for each batch it has copied into a guest.
	NetbackGrantHypercallCycles units.Cycles = 1500

	// NetfrontGrantHypercallCycles is the hypercall a sending guest issues
	// to grant its transmit buffers to dom0 (the inter-VM PV path).
	NetfrontGrantHypercallCycles units.Cycles = 1200

	// PVLocalCopyCyclesPerByte / PVLocalPerPacketCycles /
	// PVLocalPerBatchCycles are the inter-VM (memory-to-memory) PV copy
	// costs of §6.3: "the packets are directly copied from source VM
	// memory to target VM memory by CPU, which operates on system memory
	// in faster speed" — cheaper per byte than the wire path's cold-cache
	// copy, peaking near 4.3 Gbps at 4000-byte messages (Fig. 14).
	PVLocalCopyCyclesPerByte              = 3.0
	PVLocalPerPacketCycles   units.Cycles = 1800
	PVLocalPerBatchCycles    units.Cycles = 4000

	// PVMultiThreadContention is the per-extra-VM efficiency loss of the
	// multi-threaded netback (cache contention between backend threads,
	// scheduler thrash, per-vif state): each additional VM beyond the
	// first inflates backend costs by this fraction. Together with the
	// backend thread pool it drives Fig. 17/18's shape: fits at 10 VMs,
	// saturates and sheds throughput by 60.
	PVMultiThreadContention = 0.025

	// NetbackThreadsEnhanced is the thread count of the §6.5 "enhanced"
	// multi-threaded backend used in the scalability comparison.
	NetbackThreadsEnhanced = 4

	// PVNicHVMInterruptExtra is the extra per-event dom0 cost for PV NIC
	// in an HVM guest: "the event channel mechanism ... is built on top of
	// conventional LAPIC interrupt mechanism" (§6.5) — each backend kick
	// is converted into a virtual LAPIC interrupt through the device
	// model's injection path, which is why Fig. 17's dom0 runs ~100%
	// hotter than Fig. 18's (431% vs 324%).
	PVNicHVMInterruptExtra units.Cycles = 12000
)

// ---- VMDq (§6.6) ----

const (
	// VMDqQueuePairs is the number of queue pairs of the 82598 NIC used
	// for the VMDq comparison: "the NIC has only 8 queue pairs, and only 7
	// guests can get VMDq support" (one pair goes to dom0).
	VMDqQueuePairs = 8

	// VMDqGuestQueues is the number of guests that can own a queue.
	VMDqGuestQueues = VMDqQueuePairs - 1

	// VMDqPerPacketDom0Cycles is dom0's per-packet cost for a VMDq queue:
	// no copy (the NIC DMAs into the guest buffer) but dom0 still
	// intervenes for memory protection and address translation (§1).
	VMDqPerPacketDom0Cycles units.Cycles = 1300

	// VMDqDemuxPerPacketCycles is dom0's per-packet receive cost on the
	// VMDq bridge's wire tap: the NIC has already sorted packets into
	// queues, so the demux is cheap next to Dom0BridgePerPacketCycles.
	VMDqDemuxPerPacketCycles units.Cycles = 300

	// VMDqRate is the line rate of the 10 GbE 82598 used in Fig. 19.
	VMDqRate = 9570 * units.Mbps
)

// ---- vhost-style poll-mode shared ring ----

const (
	// VhostPollInterval is the poll loop granularity of the dom0 poll-mode
	// thread: every interval it scans all vifs' shared rings and drains
	// what accumulated. The thread never sleeps — poll mode trades a
	// dedicated core for interrupt-free completion signalling.
	VhostPollInterval = 50 * units.Microsecond

	// VhostRingCap is the per-vif shared-ring capacity in packets (a
	// virtio-class 1024-descriptor ring). Arrivals beyond it drop.
	VhostRingCap = 1024

	// VhostPerPacketCycles is the poll thread's per-packet ring cost:
	// descriptor read, virtio header parse, used-ring update.
	VhostPerPacketCycles units.Cycles = 1400

	// VhostCopyCyclesPerByte is the copy cost into the guest ring. The
	// poll thread runs hot (the ring pages stay cached), so it sits below
	// netback's cold-cache wire-path copy.
	VhostCopyCyclesPerByte = 3.2

	// VhostPerRoundCycles is the fixed cost of one poll round that finds
	// work: ring scan, batching setup. Idle rounds just burn the interval.
	VhostPerRoundCycles units.Cycles = 500

	// VhostGuestPollBurst is the guest-side consumption granularity: the
	// run-to-completion receive loop takes packets in bursts of this size
	// (a DPDK-style rx burst), paying stack costs but no interrupt costs.
	VhostGuestPollBurst = 64
)

// ---- OVS-style flow-caching software switch ----

const (
	// OVSFlowCacheCapacity bounds the exact-match (megaflow-class) kernel
	// flow cache; beyond it the least recently used flow is evicted.
	OVSFlowCacheCapacity = 4096

	// OVSFlowIdleTimeout evicts flows not hit for this long (the datapath
	// flow idle age-out).
	OVSFlowIdleTimeout = 10 * units.Millisecond

	// OVSHitPerPacketCycles is the per-packet cost on a cache hit: hash,
	// exact-match lookup, action execution.
	OVSHitPerPacketCycles units.Cycles = 1100

	// OVSCopyCyclesPerByte is the delivery copy into the guest ring after
	// classification.
	OVSCopyCyclesPerByte = 3.2

	// OVSPerBatchCycles is the fixed per-service-round cost of the kernel
	// datapath (softirq entry, batch setup).
	OVSPerBatchCycles units.Cycles = 1200

	// OVSUpcallCycles is dom0's cost of one flow-cache miss: queue to
	// userspace, full OpenFlow classification in ovs-vswitchd, flow
	// install back into the kernel cache. Two orders of magnitude above
	// the hit path — the hit/miss split is the backend's defining cost.
	OVSUpcallCycles units.Cycles = 120000

	// OVSUpcallLatency is the added latency of a miss: the packet waits
	// for the userspace round trip before the installed flow forwards it.
	OVSUpcallLatency = 300 * units.Microsecond

	// OVSThreads sizes the kernel datapath service pool.
	OVSThreads = 2
)

// ---- Software-only passthrough ----

const (
	// SwPassIntrHz is the emulated device's interrupt rate toward the
	// guest: the rings are guest-mapped, so the only recurring hypervisor
	// work is injecting the coalesced completion interrupt.
	SwPassIntrHz = 4000

	// SwPassRingCap is the guest-mapped ring capacity in packets.
	SwPassRingCap = 1024

	// SwPassPerPacketXenCycles is the hypervisor's per-packet audit cost:
	// descriptor addresses are validated against the pinned guest region —
	// the software substitute for IOMMU translation, amortized over the
	// batch (there is no per-packet dom0 work and no copy).
	SwPassPerPacketXenCycles units.Cycles = 250

	// SwPassVifSetupCycles is dom0's control-path cost to establish one
	// vif: map the rings into the guest, pin and audit the buffer pool.
	// Paid once per vif, never per packet.
	SwPassVifSetupCycles units.Cycles = 150000
)
