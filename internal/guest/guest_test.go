package guest

import (
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

func newHV() (*vmm.Hypervisor, *cpu.Meter, *mem.Machine) {
	eng := sim.NewEngine(1)
	meter := cpu.NewMeter()
	fabric := pcie.NewFabric()
	mmu := iommu.New(64)
	fabric.SetIOMMU(mmu)
	return vmm.NewFlavored(eng, meter, fabric, mmu, vmm.AllOptimizations, vmm.Xen), meter, mem.NewMachine(model.ServerMemory)
}

func mkGuest(t *testing.T, hv *vmm.Hypervisor, machine *mem.Machine, typ vmm.DomainType) *vmm.Domain {
	t.Helper()
	dm, err := mem.NewDomainMemory(machine, 64*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	return hv.CreateDomain("g", typ, vmm.Kernel2628, dm)
}

func TestDeliverBatchCounts(t *testing.T) {
	hv, meter, machine := newHV()
	d := mkGuest(t, hv, machine, vmm.HVM)
	r := NewNetReceiver(hv, d)
	before := meter.DomainCycles(d.Ledger())
	got := r.DeliverBatch(10, 15140)
	if got != 10 {
		t.Fatalf("accepted = %d", got)
	}
	if r.Stats.AppPackets != 10 || r.Stats.AppBytes != 15140 {
		t.Fatalf("stats = %+v", r.Stats)
	}
	want := units.Cycles(10) * model.GuestPerPacketCycles
	if c := meter.DomainCycles(d.Ledger()) - before; c != want {
		t.Fatalf("stack cycles = %d, want %d", c, want)
	}
}

func TestDeliverBatchBurstLimit(t *testing.T) {
	hv, _, machine := newHV()
	d := mkGuest(t, hv, machine, vmm.HVM)
	r := NewNetReceiver(hv, d)
	got := r.DeliverBatch(100, 151400)
	if got != model.SocketBurstCapacity {
		t.Fatalf("accepted = %d, want burst cap %d", got, model.SocketBurstCapacity)
	}
	if r.Stats.SockDropped != int64(100-model.SocketBurstCapacity) {
		t.Fatalf("dropped = %d", r.Stats.SockDropped)
	}
}

func TestDeliverBatchZeroAndNegative(t *testing.T) {
	hv, _, machine := newHV()
	d := mkGuest(t, hv, machine, vmm.HVM)
	r := NewNetReceiver(hv, d)
	if r.DeliverBatch(0, 0) != 0 || r.DeliverBatch(-3, 100) != 0 {
		t.Fatal("degenerate batches should accept nothing")
	}
}

func TestPVMPaysSyscallExtra(t *testing.T) {
	hvH, meterH, machH := newHV()
	hvP, meterP, machP := newHV()
	h := mkGuest(t, hvH, machH, vmm.HVM)
	p := mkGuest(t, hvP, machP, vmm.PVM)
	NewNetReceiver(hvH, h).DeliverBatch(10, 15140)
	NewNetReceiver(hvP, p).DeliverBatch(10, 15140)
	if meterP.DomainCycles(p.Ledger()) <= meterH.DomainCycles(h.Ledger()) {
		t.Fatal("PVM receive should cost more per packet than HVM (page-table switch)")
	}
}

func TestPerPacketExtra(t *testing.T) {
	hv, meter, machine := newHV()
	d := mkGuest(t, hv, machine, vmm.HVM)
	r := NewNetReceiver(hv, d)
	r.PerPacketExtra = model.NetfrontPerPacketCycles
	before := meter.DomainCycles(d.Ledger())
	r.DeliverBatch(10, 15140)
	want := units.Cycles(10) * (model.GuestPerPacketCycles + model.NetfrontPerPacketCycles)
	if c := meter.DomainCycles(d.Ledger()) - before; c != want {
		t.Fatalf("cycles = %d, want %d", c, want)
	}
}

func TestOnInterruptCharges(t *testing.T) {
	hv, meter, machine := newHV()
	d := mkGuest(t, hv, machine, vmm.HVM)
	r := NewNetReceiver(hv, d)
	before := meter.DomainCycles(d.Ledger())
	r.OnInterrupt()
	r.OnInterrupt()
	if r.Stats.Interrupts != 2 {
		t.Fatal("interrupt count")
	}
	if c := meter.DomainCycles(d.Ledger()) - before; c != 2*model.GuestPerInterruptCycles {
		t.Fatalf("isr cycles = %d", c)
	}
}

func TestSenderMessageSplitting(t *testing.T) {
	hv, meter, machine := newHV()
	d := mkGuest(t, hv, machine, vmm.HVM)
	s := NewNetSender(hv, d)
	pkts := s.SendMessage(4000, 1500)
	if pkts != 3 {
		t.Fatalf("packets = %d, want 3", pkts)
	}
	// One syscall, three packets' half of the stack cost.
	want := model.SyscallPerMessageCycles + 3*(model.GuestPerPacketCycles/2)
	if c := meter.DomainCycles(d.Ledger()); c != want {
		t.Fatalf("sender cycles = %d, want %d", c, want)
	}
	if s.SendMessage(0, 1500) != 0 || s.SendMessage(100, 0) != 0 {
		t.Fatal("degenerate messages")
	}
}

func TestSenderSyscallAmortization(t *testing.T) {
	// Bigger messages → fewer syscalls per byte → fewer cycles per byte
	// (the Fig. 13/14 message-size effect).
	cost := func(msg units.Size) float64 {
		hv, meter, machine := newHV()
		d := mkGuest(t, hv, machine, vmm.HVM)
		s := NewNetSender(hv, d)
		var sent units.Size
		for sent < 1_000_000 {
			s.SendMessage(msg, 1500)
			sent += msg
		}
		return float64(meter.DomainCycles(d.Ledger())) / float64(sent)
	}
	if cost(4000) >= cost(1500) {
		t.Fatal("larger messages should cost fewer cycles per byte")
	}
}

func TestConservationProperty(t *testing.T) {
	// accepted + dropped == offered, for any batch sequence.
	prop := func(raw []uint8) bool {
		hv, _, machine := newHV()
		d := hv.CreateDomain("g", vmm.HVM, vmm.Kernel2628, nil)
		_ = machine
		r := NewNetReceiver(hv, d)
		var offered int64
		for _, x := range raw {
			n := int(x)%120 + 1
			offered += int64(n)
			r.DeliverBatch(n, units.Size(n)*1514)
		}
		return r.Stats.AppPackets+r.Stats.SockDropped == offered
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
