package nic

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func newRegQueue(t *testing.T) (*sim.Engine, *Port, *Queue) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := New(eng, Config{Name: "eth0", NumVFs: 2})
	q := p.VFQueue(0)
	q.InstallRegisters()
	return eng, p, q
}

func TestRegistersEITRProgramsThrottle(t *testing.T) {
	_, _, q := newRegQueue(t)
	fn := q.Function()
	fn.MMIOWrite(0, RegEITR0, 500) // 500 µs = 2 kHz
	if q.itrInterval != 500*units.Microsecond {
		t.Fatalf("ITR = %v", q.itrInterval)
	}
	fn.MMIOWrite(0, RegEITR0, 0)
	if q.itrInterval != 0 {
		t.Fatal("EITR=0 should disable throttling")
	}
}

func TestRegistersRingLengthAndHead(t *testing.T) {
	_, _, q := newRegQueue(t)
	fn := q.Function()
	fn.MMIOWrite(0, RegRDLEN0, 256)
	if q.RingCap() != 256 {
		t.Fatalf("ring cap = %d", q.RingCap())
	}
	q.deliver(Batch{Dst: MAC(1), Count: 5, Bytes: 7570})
	if q.Occupied() != 5 {
		t.Fatalf("occupancy = %d, want 5", q.Occupied())
	}
	// Returning buffers through RDT leaves the ring model untouched.
	fn.MMIOWrite(0, RegRDT0, 5)
	if q.Occupied() != 5 || q.RingCap() != 256 {
		t.Fatalf("after RDT: occupancy %d, cap %d", q.Occupied(), q.RingCap())
	}
}

func TestRegistersResetQuiesces(t *testing.T) {
	_, _, q := newRegQueue(t)
	fn := q.Function()
	fired := 0
	q.Sink = func(*Queue) { fired++ }
	q.SetIntrEnabled(true)
	q.deliver(Batch{Dst: MAC(1), Count: 3, Bytes: 4542})
	if fired != 1 {
		t.Fatal("precondition: interrupt fired")
	}
	fn.MMIOWrite(0, RegCTRL, CtrlReset)
	if q.Occupied() != 0 {
		t.Fatal("reset should drop the ring")
	}
	// Interrupts are disabled until the driver re-enables.
	q.deliver(Batch{Dst: MAC(1), Count: 3, Bytes: 4542})
	if fired != 1 {
		t.Fatal("interrupts should stay disabled after reset")
	}
}

// TestRegistersResetAccountsRing checks CTRL.RST keeps the ring
// conservation identity the invariant audit enforces: packets wiped from a
// full ring are counted as ResetDropped, exactly as an FLR counts them.
func TestRegistersResetAccountsRing(t *testing.T) {
	_, _, q := newRegQueue(t)
	fn := q.Function()
	fn.MMIOWrite(0, RegRDLEN0, 8)
	q.deliver(Batch{Dst: MAC(1), Count: 10, Bytes: 15140}) // 2 overflow
	q.Drain(3)
	if q.Occupied() != 5 {
		t.Fatalf("precondition: occupied = %d, want 5", q.Occupied())
	}
	fn.MMIOWrite(0, RegCTRL, CtrlReset)
	s := q.Stats
	if s.ResetDropped != 5 {
		t.Fatalf("ResetDropped = %d, want the 5 wiped packets", s.ResetDropped)
	}
	if out := s.Drained + int64(q.Occupied()) + s.ResetDropped; s.RxPackets != out {
		t.Fatalf("RxPackets %d != Drained %d + Occupied %d + ResetDropped %d",
			s.RxPackets, s.Drained, q.Occupied(), s.ResetDropped)
	}
}

func TestInstallRegistersIdempotent(t *testing.T) {
	_, _, q := newRegQueue(t)
	fn := q.Function()
	fn.MMIOWrite(0, RegEITR0, 100)
	q.InstallRegisters() // second install must not clear state
	if q.itrInterval != 100*units.Microsecond {
		t.Fatalf("reinstall changed ITR to %v", q.itrInterval)
	}
	fn.MMIOWrite(0, RegRDLEN0, 64)
	if q.RingCap() != 64 {
		t.Fatalf("ring cap = %d after reinstall, want 64", q.RingCap())
	}
}

func TestVLANClassification(t *testing.T) {
	eng := sim.NewEngine(1)
	p := New(eng, Config{Name: "eth0", NumVFs: 2})
	q0, q1 := p.VFQueue(0), p.VFQueue(1)
	p.SetMAC(MAC(0xaa), q0)          // untagged → VF0
	p.SetMACVLAN(MAC(0xaa), 100, q1) // VLAN 100 → VF1
	// Untagged batch.
	p.ReceiveFromWire(Batch{Dst: MAC(0xaa), Count: 2, Bytes: 3028})
	// Tagged batch.
	p.ReceiveFromWire(Batch{Dst: MAC(0xaa), VLAN: 100, Count: 3, Bytes: 4542})
	// Unknown VLAN: dropped.
	p.ReceiveFromWire(Batch{Dst: MAC(0xaa), VLAN: 999, Count: 4, Bytes: 6056})
	eng.Run()
	if q0.Stats.RxPackets != 2 {
		t.Fatalf("untagged packets = %d", q0.Stats.RxPackets)
	}
	if q1.Stats.RxPackets != 3 {
		t.Fatalf("tagged packets = %d", q1.Stats.RxPackets)
	}
	p.ClearMACVLAN(MAC(0xaa), 100)
	if _, ok := p.ClassifyVLAN(MAC(0xaa), 100); ok {
		t.Fatal("cleared VLAN filter still classifies")
	}
	if _, ok := p.ClassifyVLAN(MAC(0xaa), 0); !ok {
		t.Fatal("untagged filter should survive")
	}
}

func TestVLANInternalSwitch(t *testing.T) {
	eng := sim.NewEngine(1)
	p := New(eng, Config{Name: "eth0", NumVFs: 2})
	dst := p.VFQueue(1)
	p.SetMACVLAN(MAC(0xbb), 42, dst)
	if _, ok := p.SendInternal(p.VFQueue(0), Batch{Dst: MAC(0xbb), Count: 1, Bytes: 1514}); ok {
		t.Fatal("untagged batch should not match VLAN-only filter")
	}
	if _, ok := p.SendInternal(p.VFQueue(0), Batch{Dst: MAC(0xbb), VLAN: 42, Count: 1, Bytes: 1514}); !ok {
		t.Fatal("tagged batch should match")
	}
	eng.Run()
	if dst.Stats.RxPackets != 1 {
		t.Fatalf("delivered = %d", dst.Stats.RxPackets)
	}
}
