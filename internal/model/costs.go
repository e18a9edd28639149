// Package model collects every calibrated constant of the simulation in one
// place: CPU-cycle costs of VM-exits and emulation paths, interrupt-path
// costs, packet-processing costs, and the hardware parameters of the
// modeled testbed.
//
// Wherever the paper reports a number, the constant is taken from it and the
// quote is cited. The remaining constants are set so that the emergent
// figures (CPU utilization, throughput, scalability slopes) land in the
// paper's reported bands; internal/experiments asserts those bands.
package model

import "repro/internal/units"

// ---- Testbed hardware (§6.1) ----

// The "server" is a two-socket quad-core SMT Xeon 5500: 16 threads at
// 2.8 GHz with 12 GB of memory.
const (
	ServerFreq   = 2800 * units.MHz
	ServerMemory = 12 * units.GiB
)

// Network: ten 1 GbE ports of Intel 82576 NICs (two 4-port + one 2-port)
// give an aggregate 10 Gbps. Each port exposes 7 VFs (§6.1, Fig. 11).
const (
	PortRate    = units.Gbps
	PortsPerBed = 10
	VFsPerPort  = 7
)

// LineRatePayload is the effective line rate seen by netperf with 1500-byte
// MTU framing (the paper reports 9.48–9.57 Gbps on 10 ports, i.e. ~957 Mbps
// per port).
const LineRateUDP = 957 * units.Mbps

// LineRateTCP is the steady-state TCP goodput per port (940 Mbps, §5.3).
const LineRateTCP = 940 * units.Mbps

// FrameSize is the on-wire frame for a 1500-byte MTU stream.
const FrameSize units.Size = 1514

// GuestMemory is the memory of each guest VM (used by migration).
const GuestMemory = 512 * units.MiB

// ---- VM-exit and interrupt-virtualization costs (§5) ----

const (
	// ExtIntExitCycles is the hypervisor cost of fielding one physical
	// interrupt: VM-exit, vector lookup, virtual interrupt injection (§4.1:
	// "Xen captures the interrupt and recognizes the guest ... then signals
	// a virtual MSI interrupt").
	ExtIntExitCycles units.Cycles = 3000

	// EOIEmulateCycles is the full fetch-decode-emulate cost of one guest
	// EOI write. §5.2: "the virtual EOI emulation cost [is] the original
	// 8.4 K cycles".
	EOIEmulateCycles units.Cycles = 8400

	// EOIFastCycles is the cost with the Exit-qualification fast path.
	// §5.2: "reduces the virtual EOI emulation cost ... to 2.5 K cycles".
	EOIFastCycles units.Cycles = 2500

	// EOICheckCycles is the additional cost of fetching the guest
	// instruction to verify it is a simple EOI write. §5.2: "imposes an
	// additional cost of 1.8 K cycles to fetch the instruction".
	EOICheckCycles units.Cycles = 1800

	// OtherAPICAccessCycles is the cost of a non-EOI APIC-access exit
	// (TPR/ICR/timer register emulation); these always take the full
	// fetch-decode-emulate path.
	OtherAPICAccessCycles units.Cycles = 8400

	// OtherAPICPerMSI is the average number of non-EOI APIC accesses a
	// guest performs per MSI interrupt. Together with one EOI per
	// interrupt and the timer-tick accesses this reproduces Fig. 7's
	// split: EOI writes are ~47% of APIC-access exits.
	OtherAPICPerMSI = 0.6

	// TimerTickHz is the guest kernel tick rate (RHEL5-era 1 kHz).
	TimerTickHz = 1000

	// OtherAPICPerTick is the number of non-EOI APIC accesses per timer
	// tick (timer reprogramming).
	OtherAPICPerTick = 4.0

	// TimerHandlerCycles is the guest-side cost of one tick.
	TimerHandlerCycles units.Cycles = 2000
)

// ---- MSI mask/unmask emulation (§5.1) ----

const (
	// MaskExitGuestCycles is guest-side overhead per trapped mask/unmask
	// MMIO/config write (pipeline flush, VM-entry).
	MaskExitGuestCycles units.Cycles = 1400

	// MaskViaDeviceModelXenCycles is the Xen-side cost of forwarding a
	// mask/unmask to the device model in dom0 (exit dispatch, event to
	// dom0, scheduling).
	MaskViaDeviceModelXenCycles units.Cycles = 3000

	// MaskViaDeviceModelDom0Cycles is the dom0 cost of one mask/unmask
	// emulated in the user-level device model: wake the device model
	// process, task context switches within dom0, emulate, reply. This is
	// the cost §5.1's optimization removes; calibrated so one VM at line
	// rate puts dom0 at ~17% and the Fig. 12 MSI bar saves ~200% of dom0
	// CPU across 10 VMs.
	MaskViaDeviceModelDom0Cycles units.Cycles = 36000

	// MaskInHypervisorCycles is the total cost when the hypervisor
	// emulates mask/unmask directly (§5.1 optimization): a single exit
	// handled in Xen.
	MaskInHypervisorCycles units.Cycles = 1500

	// MaskPollutionFactor models the TLB/cache pollution of bouncing
	// through dom0: while unoptimized mask emulation is active, guest and
	// Xen work is this much more expensive (§5.1: "Both the guest and Xen
	// CPU utilization are observed to drop slightly after optimization
	// although the code path executed is still the same").
	MaskPollutionFactor = 1.06
)

// ---- Event channels (PVM interrupt path, §6.4) ----

const (
	// EvtchnSendCycles is the Xen cost of signalling an event channel.
	EvtchnSendCycles units.Cycles = 1200

	// EvtchnGuestCycles is the guest-side upcall/ack cost per event
	// (cheaper than the virtual-LAPIC path: "Xen PVM implements a
	// paravirtualized interrupt controller ... which consumes fewer CPU
	// cycles than virtual LAPIC in HVM", §6.4).
	EvtchnGuestCycles units.Cycles = 1600

	// PVMSyscallExtraCyclesPerPacket is the extra per-packet guest cost in
	// x86-64 PVM: "the user and kernel boundary crossing in guest X86-64
	// XenLinux needs to go through the hypervisor to switch the page table
	// for isolation" (§6.4). Charged per received packet (one recv path
	// crossing each).
	PVMSyscallExtraCyclesPerPacket units.Cycles = 600
)

// ---- Guest packet processing ----

const (
	// GuestPerPacketCycles is the native-equivalent receive-path cost per
	// packet (driver ring handling, IP/UDP stack, socket delivery,
	// netserver read). Calibrated so 10 Gbps native consumes ~130-150%
	// CPU, matching §6.2's native baseline.
	GuestPerPacketCycles units.Cycles = 4400

	// GuestPerInterruptCycles is the guest cost per interrupt independent
	// of batch size (ISR entry, NAPI schedule, softirq dispatch).
	GuestPerInterruptCycles units.Cycles = 4000

	// SyscallPerMessageCycles is the sender/receiver syscall overhead per
	// message, used by the inter-VM message-size sweep (Fig. 13/14: "As
	// the message size goes up ... each system call consumes more data,
	// spending less overhead in the network stack").
	SyscallPerMessageCycles units.Cycles = 3000
)

// ---- NIC hardware behaviour ----

const (
	// RxRingEntries is the VF driver's default receive descriptor count
	// (§5.3: "1024 dd_bufs").
	RxRingEntries = 1024

	// AppBuffers is the application/socket buffer capacity in packets
	// (§5.3: "64 ap_bufs (120832 B socket buffer size in RHEL5U1)").
	AppBuffers = 64

	// InternalSwitchRate is the NIC-internal VM-to-VM DMA bandwidth of one
	// 82576 port: both DMA crossings ride the PCIe x4 link, capping
	// inter-VM throughput near 2.8 Gbps (§6.3).
	InternalSwitchRate = 2800 * units.Mbps

	// MailboxLatency is the PF↔VF mailbox round-trip time (§4.2).
	MailboxLatency = 20 * units.Microsecond

	// InternalDMASetup is the per-transfer overhead of the internal
	// VM-to-VM switch path (doorbell write, descriptor fetch round trip
	// over PCIe). It is why small inter-VM messages achieve less than the
	// 2.8 Gbps DMA ceiling in Fig. 13.
	InternalDMASetup = 2 * units.Microsecond
)

// ---- Interrupt coalescing (§5.3) ----

const (
	// DefaultITRHz is the VF driver's default fixed interrupt rate
	// ("2 kHz interrupt frequency is the VF driver's default").
	DefaultITRHz = 2000

	// LowLatencyITRHz is the low-latency profile of native drivers
	// ("20 kHz interrupt frequency denotes the normal case used for low
	// latency in modern NIC drivers, such as the IGB driver").
	LowLatencyITRHz = 20000

	// DynamicITRTargetPackets is the batch size the dynamic (IGB-style)
	// moderation aims for; interrupt rate ≈ pps / target, clamped below.
	DynamicITRTargetPackets = 10

	// DynamicITRMinHz / DynamicITRMaxHz clamp dynamic moderation.
	DynamicITRMinHz = 2000
	DynamicITRMaxHz = 8000

	// AICRedundancyRate is r in eq. (2)/(3): "An approximately 20%
	// hypervisor intervention overhead is estimated, that is r = 1.2".
	//
	// Note on the formula: eq. (2) reads t_d·r = bufs/pps, i.e. the
	// interrupt interval with the r slack applied is the buffer-fill time,
	// giving IF = 1/t_d = pps·r/bufs — the NIC interrupts *earlier* than
	// the buffer would overflow by the redundancy factor. The printed
	// eq. (3), IF = pps/(bufs·r), divides by r instead, which would make
	// more slack *lower* the interrupt rate and guarantee overflow; we
	// implement the derivation, not the typo.
	AICRedundancyRate = 1.2

	// AICBufs is bufs in eq. (1): min(ap_bufs, dd_bufs) = min(64, 1024).
	AICBufs = AppBuffers

	// AICMinHz is lif in eq. (3), the lowest acceptable interrupt
	// frequency bounding worst-case latency.
	AICMinHz = 1200

	// AICSamplePeriod is how often AIC re-samples pps ("pps is sampled per
	// second, to adaptively adjust IF").
	AICSamplePeriod = units.Second

	// SocketBurstCapacity is the largest per-interrupt packet batch the
	// receive path absorbs without loss: ap_bufs of queued capacity plus
	// the packets the application drains concurrently while the softirq
	// runs. Calibrated against Fig. 9: at a fixed 1 kHz the 940 Mbps TCP
	// stream (78 packets per interval) loses ~9.6% throughput, i.e. the
	// loss-free equilibrium is ~70 packets per interval.
	SocketBurstCapacity = 70
)

// ---- TCP latency sensitivity (§5.3, Fig. 9) ----

const (
	// TCPWindow is the effective receive window of the modeled TCP stream.
	TCPWindow units.Size = 128 * units.KiB

	// TCPBaseRTT is the LAN round-trip time excluding interrupt
	// coalescing delay.
	TCPBaseRTT = 120 * units.Microsecond

	// TCPCoalesceRTTFactor scales the mean added delay: one-half interrupt
	// interval on the data path plus a contribution on the ACK path.
	TCPCoalesceRTTFactor = 0.75
)

// ---- Migration (§6.7) ----

const (
	// MigrationLinkRate is the rate at which VM state moves to the target
	// host (the testbed's 1 GbE management path).
	MigrationLinkRate = units.Gbps

	// DirtyPagesPerSecond is the guest's page-dirtying rate while running
	// netperf (receive buffers + kernel state).
	DirtyPagesPerSecond = 24000

	// WorkingSetPages bounds the set of distinct pages netperf keeps
	// re-dirtying (recycled socket buffers + kernel state, ~64 MiB). This
	// is what makes pre-copy converge: each round's dirty harvest is at
	// most the working set, not dirty-rate × round-length.
	WorkingSetPages = 16384

	// MigrationPerPageDom0Cycles is dom0's CPU cost to process one page
	// through the migration channel (map, checksum, send).
	MigrationPerPageDom0Cycles = 2000

	// PrecopyRounds caps iterative pre-copy rounds before stop-and-copy.
	PrecopyRounds = 4

	// PrecopyStopThresholdPages: remaining dirty pages below this allow
	// stop-and-copy.
	PrecopyStopThresholdPages = 8192

	// StopAndCopyOverhead is the fixed cost of the final stop-and-copy
	// step beyond page transfer: device state save/restore, network
	// switch-over (calibrated to the paper's ~1.4-1.5 s downtime).
	StopAndCopyOverhead = 1150 * units.Millisecond

	// DNISSwitchOutage is the packet-loss window while the bond fails over
	// from VF to PV NIC at hot-removal ("an additional 0.6 s service
	// shutdown time at very beginning of migration, due to packet loss at
	// interface switch time", §6.7).
	DNISSwitchOutage = 600 * units.Millisecond

	// HotplugEventLatency is the virtual ACPI hot-plug signalling delay.
	HotplugEventLatency = 50 * units.Millisecond

	// MigrationStart is when the migration begins in the Fig. 20/21
	// timelines ("The migration starts at 4.5th second for both cases").
	MigrationStart = 4500 * units.Millisecond
)

// ---- Fault handling & recovery ----

const (
	// MailboxTimeout is the VF driver's initial wait for a PF response
	// before retransmitting a mailbox request; each retry doubles it
	// (exponential backoff). The base covers the 2×MailboxLatency round
	// trip plus dom0 scheduling jitter of the PF driver.
	MailboxTimeout = 500 * units.Microsecond

	// MailboxMaxAttempts bounds mailbox request (re)transmissions before
	// the VF driver declares the channel dead and gives up.
	MailboxMaxAttempts = 5

	// FLRLatency is the quiesce window after initiating a Function-Level
	// Reset: PCIe requires software to wait 100 ms before re-touching the
	// function.
	FLRLatency = 100 * units.Millisecond

	// MiimonPeriod is the bonding driver's default link/health polling
	// interval (Linux bonding's miimon=100).
	MiimonPeriod = 100 * units.Millisecond

	// MiimonFailbackTicks is how many consecutive healthy polls the bond
	// requires before failing back to the VF slave (bonding's updelay).
	MiimonFailbackTicks = 2

	// FaultFailoverOutage is the interface-switch loss window for an
	// unplanned VF→PV failover. Much smaller than DNISSwitchOutage: the
	// standby is already live, so the cost is the slave switch plus the
	// gratuitous ARP convergence, not a full hot-unplug handshake.
	FaultFailoverOutage = 100 * units.Millisecond

	// DeviceResetNotice is the gap between the PF driver's "impending
	// global device reset" broadcast (§4.2) and the reset itself — the
	// warning time VF drivers get to quiesce.
	DeviceResetNotice = units.Millisecond

	// WatchdogResetBackoff rate-limits watchdog-initiated VF reinits so a
	// persistently dead function is not FLR'd every miimon tick.
	WatchdogResetBackoff = 500 * units.Millisecond
)

// ---- Cluster fabric (scale-out beyond the single testbed) ----

const (
	// ClusterLinkRate is the default host↔ToR uplink rate: the same 1 GbE
	// class as the testbed's ports, so one host can saturate its uplink.
	ClusterLinkRate = units.Gbps

	// ClusterLinkLatency is the one-way propagation + switching latency of
	// one fabric hop (host→switch or switch→host): intra-rack copper plus
	// a store-and-forward ToR stage.
	ClusterLinkLatency = 5 * units.Microsecond

	// ClusterQueueCap bounds each switch egress queue (per downlink).
	// 256 KiB ≈ 170 full-size frames — a shallow ToR buffer, so congestion
	// shows up as tail drops rather than unbounded delay.
	ClusterQueueCap = 256 * units.KiB

	// MigrationChunk is the unit in which inter-host migration traffic is
	// handed to the fabric: large enough to amortize per-batch overhead,
	// small enough that foreground frames interleave on the links.
	MigrationChunk = 64 * units.KiB

	// MigrationChunkTimeout is the base wait for a chunk to be observed at
	// the target before the source retransmits; retries back off
	// exponentially (capped at 16× the base).
	MigrationChunkTimeout = 25 * units.Millisecond

	// MigrationChunkAttempts bounds per-chunk (re)transmissions before the
	// migration aborts cleanly — about 3.5 s of cumulative waiting, enough
	// to ride out a transient link flap but not a dead fabric.
	MigrationChunkAttempts = 12
)

// ---- Residual dom0 overheads ----

const (
	// Dom0BaselinePct is dom0's housekeeping utilization independent of
	// guests (PF driver, kernel threads). Fig. 6 shows ~3% dom0 with the
	// mask optimization across 1-7 VMs.
	Dom0BaselinePct = 2.5

	// Dom0PerHVMGuestPct is the residual per-guest device-model cost
	// (timers, occasional emulation) with all optimizations on.
	Dom0PerHVMGuestPct = 0.06

	// Dom0PerPVMGuestPct is the equivalent for PVM guests (pciback only).
	Dom0PerPVMGuestPct = 0.03
)

// PacketsPerSecond reports the packet rate of a byte rate at the given
// frame size.
func PacketsPerSecond(rate units.BitRate, frame units.Size) float64 {
	if frame <= 0 {
		return 0
	}
	return float64(rate) / float64(frame.Bits())
}
