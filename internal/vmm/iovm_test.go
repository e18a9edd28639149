package vmm

import (
	"testing"

	"repro/internal/pcie"
)

func iovmBed(t *testing.T) (*bed, *Domain, *pcie.Function) {
	t.Helper()
	b := newBed(AllOptimizations)
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	fn := pcie.NewFunction("vf0", pcie.MakeRID(1, 1, 0), 0x8086, 0x10ca)
	pcie.AddMSICap(fn.Config(), 0x50, 0)
	if err := b.hv.AssignDevice(g, fn); err != nil {
		t.Fatal(err)
	}
	return b, g, fn
}

func TestIOVMExposeRequiresAssignment(t *testing.T) {
	b := newBed(AllOptimizations)
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	fn := pcie.NewFunction("vf0", pcie.MakeRID(1, 1, 0), 0x8086, 0x10ca)
	if _, err := b.hv.IOVMgr().Expose(g, fn); err == nil {
		t.Fatal("expose of unassigned function should fail")
	}
}

func TestIOVMReadThrough(t *testing.T) {
	b, g, fn := iovmBed(t)
	vc, err := b.hv.IOVMgr().Expose(g, fn)
	if err != nil {
		t.Fatal(err)
	}
	if vid := vc.Read16(pcie.RegVendorID); vid != 0x8086 {
		t.Fatalf("vendor = %#x", vid)
	}
	// Each mediated access charges dom0 (HVM device-model path).
	perAccess := b.cycles("dom0")
	if perAccess == 0 {
		t.Fatal("mediated reads should cost dom0 cycles")
	}
	if off := vc.FindCapability(pcie.CapIDMSI); off != 0x50 {
		t.Fatalf("MSI cap at %#x", off)
	}
	if got := b.cycles("dom0"); got != 2*perAccess {
		t.Fatalf("dom0 cycles after two mediated accesses = %d, want %d", got, 2*perAccess)
	}
	// Expose is idempotent.
	vc2, _ := b.hv.IOVMgr().Expose(g, fn)
	if vc2 != vc {
		t.Fatal("second expose should return the same view")
	}
}

func TestIOVMCommandShadow(t *testing.T) {
	b, g, fn := iovmBed(t)
	vc, _ := b.hv.IOVMgr().Expose(g, fn)
	// Host sets the real command register.
	fn.Config().Write16(pcie.RegCommand, pcie.CmdMemSpace|pcie.CmdBusMaster)
	// Guest writes garbage including reserved bits.
	vc.Write16(pcie.RegCommand, 0xffff)
	// The guest sees only its allowed bits...
	got := vc.Read16(pcie.RegCommand)
	want := uint16(pcie.CmdMemSpace | pcie.CmdBusMaster | pcie.CmdIntxOff)
	if got != want {
		t.Fatalf("shadow command = %#x, want %#x", got, want)
	}
	// ...and the real register is untouched.
	if real := fn.Config().Read16(pcie.RegCommand); real != pcie.CmdMemSpace|pcie.CmdBusMaster {
		t.Fatalf("real command mutated: %#x", real)
	}
}

func TestIOVMBlocksHostOwnedWrites(t *testing.T) {
	b, g, fn := iovmBed(t)
	vc, _ := b.hv.IOVMgr().Expose(g, fn)
	before := fn.Config().Read16(pcie.RegVendorID)
	vc.Write16(pcie.RegVendorID, 0xdead)
	vc.Write32(pcie.RegBAR0, 0xdeadbeef)
	vc.Write32(pcie.ExtCapBase, 0xdeadbeef)
	if fn.Config().Read16(pcie.RegVendorID) != before {
		t.Fatal("vendor id mutated through guest write")
	}
	if fn.Config().Read32(pcie.RegBAR0) != 0 {
		t.Fatal("BAR mutated through guest write")
	}
	if vc.BlockedWrites != 3 {
		t.Fatalf("blocked writes = %d, want 3", vc.BlockedWrites)
	}
}

func TestIOVMAllowsCapabilityWrites(t *testing.T) {
	b, g, fn := iovmBed(t)
	vc, _ := b.hv.IOVMgr().Expose(g, fn)
	msi, _ := pcie.MSICapAt(fn.Config())
	vc.Write16(msi.Offset()+2, pcie.MSICtl64Bit|pcie.MSICtlPerVectorM|pcie.MSICtlEnable)
	if fn.Config().Read16(msi.Offset()+2)&pcie.MSICtlEnable == 0 {
		t.Fatal("guest MSI enable should reach the device")
	}
}

func TestIOVMRevokeOnUnassign(t *testing.T) {
	b, g, fn := iovmBed(t)
	vc, _ := b.hv.IOVMgr().Expose(g, fn)
	_ = vc
	b.hv.UnassignDevice(g, fn)
	if _, err := b.hv.IOVMgr().Expose(g, fn); err == nil {
		t.Fatal("expose after unassign should fail")
	}
}
