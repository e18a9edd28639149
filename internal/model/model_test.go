package model

import (
	"testing"

	"repro/internal/units"
)

// The cost model is the calibration heart of the reproduction; these tests
// pin the paper-stated constants and the internal relationships the figures
// depend on, so an accidental edit is caught immediately.

func TestPaperStatedConstants(t *testing.T) {
	// §5.2 quotes these three outright.
	if EOIEmulateCycles != 8400 {
		t.Fatalf("EOI emulate = %d, paper says 8.4K", EOIEmulateCycles)
	}
	if EOIFastCycles != 2500 {
		t.Fatalf("EOI fast = %d, paper says 2.5K", EOIFastCycles)
	}
	if EOICheckCycles != 1800 {
		t.Fatalf("EOI check = %d, paper says 1.8K", EOICheckCycles)
	}
	// §5.3: 64 ap_bufs, 1024 dd_bufs, r = 1.2.
	if AppBuffers != 64 || RxRingEntries != 1024 {
		t.Fatal("buffer depths differ from the paper")
	}
	if AICRedundancyRate != 1.2 {
		t.Fatal("redundancy rate differs from the paper")
	}
	// §6.1: 16 threads at 2.8 GHz, ten 1 GbE ports, 7 VFs each.
	if ServerFreq != 2800*units.MHz {
		t.Fatal("server config differs from the paper")
	}
	if PortsPerBed != 10 || VFsPerPort != 7 {
		t.Fatal("NIC config differs from the paper")
	}
	// §6.6: 8 queue pairs, 7 for guests.
	if VMDqQueuePairs != 8 || VMDqGuestQueues != 7 {
		t.Fatal("VMDq queues differ from the paper")
	}
}

func TestCostOrderings(t *testing.T) {
	// The optimizations must actually be optimizations.
	if EOIFastCycles >= EOIEmulateCycles {
		t.Fatal("EOI fast path must be cheaper than emulation")
	}
	if MaskInHypervisorCycles >= MaskViaDeviceModelDom0Cycles {
		t.Fatal("hypervisor mask emulation must be cheaper than the device model")
	}
	// Event channels must be cheaper than the virtual-LAPIC path.
	evtchn := EvtchnSendCycles + EvtchnGuestCycles
	lapic := ExtIntExitCycles + EOIFastCycles
	if evtchn >= lapic {
		t.Fatal("event channel should beat virtual LAPIC (§6.4)")
	}
	// Local (inter-VM) PV copy must be cheaper per byte than the wire path.
	if PVLocalCopyCyclesPerByte >= NetbackCopyCyclesPerByte {
		t.Fatal("local copy should be cheaper than wire-path copy (§6.3)")
	}
	if MaskPollutionFactor <= 1.0 {
		t.Fatal("pollution factor must inflate costs")
	}
}

func TestSingleNetbackThreadSaturationPoint(t *testing.T) {
	// §6.5: one 2.8 GHz netback thread saturates near 3.6 Gbps. Check the
	// constants produce that, assuming ~32-packet service rounds.
	const pkts = 32.0
	bytes := pkts * 1514.0
	perRound := float64(NetbackPerBatchCycles) + pkts*float64(NetbackPerPacketCycles) + bytes*NetbackCopyCyclesPerByte
	roundsPerSec := float64(ServerFreq) / perRound
	gbps := roundsPerSec * bytes * 8 / 1e9
	if gbps < 3.0 || gbps > 4.2 {
		t.Fatalf("single-thread saturation = %.2f Gbps, want ≈3.6", gbps)
	}
}

func TestInternalSwitchBelowPVCopy(t *testing.T) {
	// §6.3: the NIC's internal path (2.8 Gbps) loses to PV's CPU copy
	// (4.3 Gbps at 4000-byte messages) on raw throughput.
	const pvCopyRate = 4300 * units.Mbps
	if InternalSwitchRate >= pvCopyRate {
		t.Fatal("internal DMA should be slower than CPU copy")
	}
	if InternalSwitchRate <= PortRate {
		t.Fatal("internal switching must exceed the wire (that is its point)")
	}
}

func TestPacketsPerSecond(t *testing.T) {
	pps := PacketsPerSecond(LineRateUDP, FrameSize)
	if pps < 78000 || pps > 80000 {
		t.Fatalf("line-rate pps = %.0f, want ≈79k", pps)
	}
	if PacketsPerSecond(units.Gbps, 0) != 0 {
		t.Fatal("zero frame should report zero")
	}
}

func TestAICFloorBelowDefault(t *testing.T) {
	// lif must sit below the VF default so AIC can actually save CPU.
	if AICMinHz >= DefaultITRHz {
		t.Fatal("AIC floor above the default rate makes AIC pointless")
	}
	// And the line-rate AIC frequency must stay under the default's CPU
	// while avoiding overflow: batch = bufs/r < SocketBurstCapacity.
	batch := float64(AICBufs) / AICRedundancyRate * AICRedundancyRate // = bufs
	if batch > float64(SocketBurstCapacity) {
		t.Fatal("AIC's target batch exceeds the burst capacity")
	}
}

func TestMigrationConverges(t *testing.T) {
	// Pre-copy only converges if a round's dirtying stays below the round
	// payload: the working set must transfer faster than it re-dirties.
	wsTransfer := units.TransferTime(units.Size(WorkingSetPages)*4096, MigrationLinkRate)
	redirty := float64(DirtyPagesPerSecond) * wsTransfer.Seconds()
	if redirty >= float64(WorkingSetPages) {
		t.Fatalf("working set re-dirties (%.0f pages) before it transfers (%d)", redirty, WorkingSetPages)
	}
}

func TestDatapathCostTable(t *testing.T) {
	// Every software backend has a non-zero per-packet cost; the hardware
	// path (vf) and unknown kinds report zero tables — the NIC moves the
	// packets there.
	for _, kind := range []string{"pv", "vmdq", "vhost", "ovs", "swpass"} {
		if c := DatapathCostTable(kind); c.PerPacket == 0 {
			t.Errorf("%s: zero per-packet cost", kind)
		}
	}
	for _, kind := range []string{"vf", "nonesuch"} {
		if c := DatapathCostTable(kind); c != (DatapathCosts{}) {
			t.Errorf("%s: want zero table, got %+v", kind, c)
		}
	}
	// The copy paths (pv, vhost, ovs) pay per byte; the audit-only and
	// queue-steering paths (swpass, vmdq) are zero-copy.
	if DatapathCostTable("vhost").PerByte == 0 || DatapathCostTable("swpass").PerByte != 0 {
		t.Error("copy cost split wrong between vhost and swpass")
	}
}
