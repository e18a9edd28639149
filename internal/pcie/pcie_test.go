package pcie

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRID(t *testing.T) {
	r := MakeRID(2, 0, 1)
	if r.Bus() != 2 || r.Dev() != 0 || r.Fn() != 1 {
		t.Fatalf("BDF = %d:%d.%d", r.Bus(), r.Dev(), r.Fn())
	}
	if r.String() != "02:00.1" {
		t.Fatalf("String = %q", r.String())
	}
	// Offset arithmetic: +8 with stride 1 lands on dev 1 fn 0.
	v := r.Offset(7)
	if v.Dev() != 1 || v.Fn() != 0 {
		t.Fatalf("offset RID = %s", v)
	}
}

func TestRIDRoundTripProperty(t *testing.T) {
	prop := func(b, d, f uint8) bool {
		bus, dev, fn := int(b), int(d%32), int(f%8)
		r := MakeRID(bus, dev, fn)
		return r.Bus() == bus && r.Dev() == dev && r.Fn() == fn
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakeRIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid BDF should panic")
		}
	}()
	MakeRID(0, 32, 0)
}

func TestConfigSpaceAccess(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10c9)
	if c.Read16(RegVendorID) != 0x8086 {
		t.Fatal("vendor id")
	}
	if c.Read16(RegDeviceID) != 0x10c9 {
		t.Fatal("device id")
	}
	c.Write32(0x40, 0xdeadbeef)
	if c.Read32(0x40) != 0xdeadbeef {
		t.Fatal("32-bit round trip")
	}
	if c.Read8(0x40) != 0xef || c.Read8(0x43) != 0xde {
		t.Fatal("little-endian layout")
	}
	// Out-of-range reads are all-ones, writes dropped.
	if c.Read32(ConfigSpaceSize) != 0xffffffff {
		t.Fatal("out-of-range read should be all-ones")
	}
	c.Write32(ConfigSpaceSize, 1) // no panic
}

func TestConfigSpaceNonPresent(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10ca)
	c.SetPresent(false)
	if c.Read16(RegVendorID) != 0xffff {
		t.Fatal("non-present function should read all-ones")
	}
	c.Write16(0x40, 7)
	c.SetPresent(true)
	if c.Read16(0x40) != 0 {
		t.Fatal("writes while non-present should be dropped")
	}
}

func TestCapabilityChain(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10c9)
	AddMSICap(c, 0x50, 0)
	AddMSIXCap(c, 0x70, 3, 3, 0)
	if got := c.FindCapability(CapIDMSI); got != 0x50 {
		t.Fatalf("MSI at %#x", got)
	}
	if got := c.FindCapability(CapIDMSIX); got != 0x70 {
		t.Fatalf("MSI-X at %#x", got)
	}
	if got := c.FindCapability(CapIDPCIExp); got != 0 {
		t.Fatalf("absent cap found at %#x", got)
	}
}

func TestExtCapabilityChain(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10c9)
	AddSRIOVCap(c, ExtCapBase, SRIOVConfig{TotalVFs: 7, FirstVFOffset: 8, VFStride: 1, VFDeviceID: 0x10ca})
	AddACSCap(c, 0x160)
	if got := c.FindExtCapability(ExtCapIDSRIOV); got != ExtCapBase {
		t.Fatalf("SR-IOV at %#x", got)
	}
	if got := c.FindExtCapability(ExtCapIDACS); got != 0x160 {
		t.Fatalf("ACS at %#x", got)
	}
	if got := c.FindExtCapability(0x0001); got != 0 {
		t.Fatalf("absent ext cap found at %#x", got)
	}
}

func TestCapabilityWalkProperty(t *testing.T) {
	// However many capabilities are added, each is findable and the chain
	// never loops.
	prop := func(nRaw uint8) bool {
		c := NewConfigSpace(0x8086, 1)
		n := int(nRaw%6) + 1
		off := 0x40
		ids := []uint8{}
		for i := 0; i < n; i++ {
			id := uint8(0x20 + i) // fake vendor-range ids
			c.AddCapability(id, off, 4)
			ids = append(ids, id)
			off += 0x10
		}
		for _, id := range ids {
			if c.FindCapability(id) == 0 {
				return false
			}
		}
		return c.FindCapability(0x1f) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMSICapMasking(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10c9)
	m := AddMSICap(c, 0x50, 2) // 4 vectors
	if c.Read16(m.Offset()+2)&MSICtlEnable != 0 {
		t.Fatal("MSI should start disabled")
	}
	// Message address (lo, hi) and data, as the guest driver programs them.
	c.Write32(m.Offset()+4, 0xfee00000)
	c.Write32(m.Offset()+8, 0)
	c.Write32(m.Offset()+12, 0x4041)
	addr, data := m.Message()
	if addr != 0xfee00000 || data != 0x4041 {
		t.Fatalf("message = %#x/%#x", addr, data)
	}
	// The mask register sits at +16 (0x60 here), one bit per vector.
	m.SetMasked(1, true)
	if c.Read32(0x60) != 0b10 {
		t.Fatalf("mask bits = %#b, want vector 1 only", c.Read32(0x60))
	}
	m.SetMasked(1, false)
	if c.Read32(0x60) != 0 {
		t.Fatal("unmask failed")
	}
}

func TestMSIXCap(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10c9)
	m := AddMSIXCap(c, 0x70, 10, 3, 0x2000)
	if size := c.Read16(m.Offset()+2)&0x7ff + 1; size != 10 {
		t.Fatalf("table size = %d", size)
	}
	got, ok := MSIXCapAt(c)
	if !ok || got.Offset() != 0x70 || got.TableBIR() != 3 {
		t.Fatal("MSIXCapAt lookup failed")
	}
}

func TestSRIOVCap(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10c9)
	s := AddSRIOVCap(c, ExtCapBase, SRIOVConfig{TotalVFs: 7, FirstVFOffset: 8, VFStride: 1, VFDeviceID: 0x10ca})
	if s.TotalVFs() != 7 || s.NumVFs() != 0 {
		t.Fatalf("TotalVFs=%d NumVFs=%d", s.TotalVFs(), s.NumVFs())
	}
	if s.VFEnabled() {
		t.Fatal("VFs should start disabled")
	}
	s.SetNumVFs(7)
	c.Write16(s.Offset()+0x08, SRIOVCtlVFEnable|SRIOVCtlVFMSE) // as the PF driver does
	if !s.VFEnabled() || s.NumVFs() != 7 {
		t.Fatal("enable failed")
	}
	pf := MakeRID(2, 0, 0)
	if got := s.VFRID(pf, 0); got != MakeRID(2, 1, 0) {
		t.Fatalf("VF0 RID = %s", got)
	}
	if got := s.VFRID(pf, 6); got != MakeRID(2, 1, 6) {
		t.Fatalf("VF6 RID = %s", got)
	}
	if s.VFDeviceID() != 0x10ca {
		t.Fatal("VF device id")
	}
}

func TestFunctionBARs(t *testing.T) {
	f := NewFunction("nic", MakeRID(1, 0, 0), 0x8086, 0x10c9)
	f.SetBARSize(0, 0x20000)
	f.AssignBAR(0, 0xe0000000)
	if f.BAR(0) != 0xe0000000 {
		t.Fatal("BAR not assigned")
	}
	if bar, ok := f.OwnsMMIO(0xe0010000); !ok || bar != 0 {
		t.Fatal("OwnsMMIO inside")
	}
	if _, ok := f.OwnsMMIO(0xe0020000); ok {
		t.Fatal("OwnsMMIO past end")
	}
	f.Config().SetPresent(false)
	if _, ok := f.OwnsMMIO(0xe0010000); ok {
		t.Fatal("non-present function should not claim MMIO")
	}
}

func TestFunctionHooks(t *testing.T) {
	f := NewFunction("nic", MakeRID(1, 0, 0), 0x8086, 0x10c9)
	var gotOff int
	var gotVal uint32
	f.OnConfigWrite = func(off, size int, val uint32) { gotOff, gotVal = off, val }
	f.ConfigWrite16(0x44, 0xbeef)
	if gotOff != 0x44 || gotVal != 0xbeef {
		t.Fatal("config hook not fired")
	}
	var mmioOff uint64
	f.OnMMIOWrite = func(bar int, off, val uint64) { mmioOff = off }
	f.MMIOWrite(0, 0x100, 1)
	if mmioOff != 0x100 {
		t.Fatal("MMIO write hook not fired")
	}
}

func buildSRIOVDevice(t *testing.T, name string, numVFs int) (*Device, *Function) {
	t.Helper()
	pf := NewFunction(name, MakeRID(0, 0, 0), 0x8086, 0x10c9)
	pf.SetBARSize(0, 0x20000)
	AddMSIXCap(pf.Config(), 0x70, 10, 3, 0)
	AddSRIOVCap(pf.Config(), ExtCapBase, SRIOVConfig{TotalVFs: numVFs, FirstVFOffset: 8, VFStride: 1, VFDeviceID: 0x10ca})
	dev := NewDevice(name)
	dev.AddPF(pf)
	for i := 0; i < numVFs; i++ {
		vf := dev.AddVF(pf, i)
		vf.SetBARSize(0, 0x4000)
	}
	return dev, pf
}

func TestDeviceVFLifecycle(t *testing.T) {
	dev, pf := buildSRIOVDevice(t, "eth0", 7)
	vfs := dev.VFs(pf)
	if len(vfs) != 7 {
		t.Fatalf("VFs = %d", len(vfs))
	}
	for _, vf := range vfs {
		if vf.Config().Present() {
			t.Fatal("VF present before enable")
		}
		if !vf.IsVF() {
			t.Fatal("VF parentage wrong")
		}
	}
	dev.SetVFsPresent(pf, 3)
	present := 0
	for _, vf := range vfs {
		if vf.Config().Present() {
			present++
		}
	}
	if present != 3 {
		t.Fatalf("present VFs = %d, want 3", present)
	}
	if vfs[0].Config().Read16(RegDeviceID) != 0x10ca {
		t.Fatal("VF device id")
	}
	if !vfs[2].IsVF() || pf.IsVF() || vfs[2].Name() != pf.Name()+"-vf2" {
		t.Fatalf("VF 2 is %q (IsVF %v), PF IsVF %v", vfs[2].Name(), vfs[2].IsVF(), pf.IsVF())
	}
}

func buildFabric(t *testing.T) (*Fabric, *Device, *Function, *Device, *Function) {
	t.Helper()
	f := NewFabric()
	rp := f.AddRootPort("rp0")
	sw := NewSwitch("sw0", 2)
	f.AddSwitch(rp, sw)
	devA, pfA := buildSRIOVDevice(t, "ethA", 7)
	devB, pfB := buildSRIOVDevice(t, "ethB", 7)
	f.Attach(sw.Downstream(0), devA)
	f.Attach(sw.Downstream(1), devB)
	return f, devA, pfA, devB, pfB
}

func TestEnumerationHidesVFs(t *testing.T) {
	f, devA, pfA, _, _ := buildFabric(t)
	found := f.Enumerate()
	if len(found) != 2 {
		t.Fatalf("scan found %d functions, want 2 PFs", len(found))
	}
	for _, fn := range found {
		if fn.IsVF() {
			t.Fatal("scan found a VF")
		}
		if fn.BAR(0) == 0 {
			t.Fatal("enumeration should assign BARs")
		}
	}
	// Even after VF enable, scans skip VFs…
	devA.SetVFsPresent(pfA, 7)
	if got := len(f.Enumerate()); got != 2 {
		t.Fatalf("post-enable scan found %d", got)
	}
	// …but targeted hot-add finds them.
	vf0 := devA.VFs(pfA)[0]
	fn, err := f.HotAdd(vf0.RID())
	if err != nil {
		t.Fatal(err)
	}
	if fn.BAR(0) == 0 {
		t.Fatal("hot-add should assign BARs")
	}
}

func TestHotAddDisabledVFFails(t *testing.T) {
	f, devA, pfA, _, _ := buildFabric(t)
	vf := devA.VFs(pfA)[0]
	if _, err := f.HotAdd(vf.RID()); err == nil {
		t.Fatal("hot-add of disabled VF should fail")
	}
	if _, err := f.HotAdd(MakeRID(9, 9, 0)); err == nil {
		t.Fatal("hot-add of unknown RID should fail")
	}
}

func TestAttachAssignsUniqueRIDs(t *testing.T) {
	f, devA, pfA, devB, pfB := buildFabric(t)
	seen := make(map[RID]bool)
	for _, fn := range f.Functions() {
		if seen[fn.RID()] {
			t.Fatalf("duplicate RID %s", fn.RID())
		}
		seen[fn.RID()] = true
	}
	if pfA.RID().Bus() == pfB.RID().Bus() {
		t.Fatal("devices on different ports should get different buses")
	}
	_ = devA
	_ = devB
}

// fakeTranslator lets fabric tests observe IOMMU involvement.
type fakeTranslator struct {
	calls  int
	reject bool
}

func (ft *fakeTranslator) TranslateDMA(rid uint16, addr uint64, write bool) (uint64, error) {
	ft.calls++
	if ft.reject {
		return 0, errRejected
	}
	return addr + 0x1000_0000, nil
}

var errRejected = &translatorErr{}

type translatorErr struct{}

func (*translatorErr) Error() string { return "rejected by translator" }

func TestRouteDMAHostMemory(t *testing.T) {
	f, devA, pfA, _, _ := buildFabric(t)
	ft := &fakeTranslator{}
	f.SetIOMMU(ft)
	devA.SetVFsPresent(pfA, 7)
	vf := devA.VFs(pfA)[0]
	r := f.RouteDMA(vf, 0x1000, true)
	if r.Blocked || !r.ThroughIOMMU || r.Kind != RouteHostMemory {
		t.Fatalf("route = %+v", r)
	}
	if r.HostAddr != 0x1000_1000 {
		t.Fatalf("host addr = %#x", r.HostAddr)
	}
	if ft.calls != 1 {
		t.Fatal("IOMMU not consulted")
	}
}

func TestRouteDMANoIOMMUBlocks(t *testing.T) {
	f, devA, pfA, _, _ := buildFabric(t)
	devA.SetVFsPresent(pfA, 1)
	r := f.RouteDMA(devA.VFs(pfA)[0], 0x1000, true)
	if !r.Blocked {
		t.Fatal("DMA without IOMMU should block")
	}
}

func TestP2PBypassesIOMMUWithoutACS(t *testing.T) {
	f, devA, pfA, devB, pfB := buildFabric(t)
	ft := &fakeTranslator{}
	f.SetIOMMU(ft)
	f.Enumerate()
	devA.SetVFsPresent(pfA, 7)
	devB.SetVFsPresent(pfB, 7)
	vfA := devA.VFs(pfA)[0]
	vfB := devB.VFs(pfB)[0]
	if _, err := f.HotAdd(vfA.RID()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.HotAdd(vfB.RID()); err != nil {
		t.Fatal(err)
	}
	// VF A writes into VF B's MMIO: same switch, redirect off → the §4.3
	// hole: direct routing, IOMMU bypassed.
	r := f.RouteDMA(vfA, vfB.BAR(0)+0x10, true)
	if r.Kind != RoutePeerMMIO || !r.BypassedIOMMU || r.Blocked {
		t.Fatalf("route = %+v", r)
	}
	if ft.calls != 0 {
		t.Fatal("IOMMU should not see direct P2P")
	}
	if r.Target != vfB {
		t.Fatal("wrong P2P target")
	}
}

func TestP2PWithACSRedirectGoesUpstream(t *testing.T) {
	f, devA, pfA, devB, pfB := buildFabric(t)
	ft := &fakeTranslator{reject: true} // guest tables don't map peer MMIO
	f.SetIOMMU(ft)
	f.Enumerate()
	devA.SetVFsPresent(pfA, 7)
	devB.SetVFsPresent(pfB, 7)
	vfA := devA.VFs(pfA)[0]
	vfB := devB.VFs(pfB)[0]
	f.HotAdd(vfA.RID())
	f.HotAdd(vfB.RID())
	// Turn on redirect on the source's downstream port.
	acs, ok := vfA.Port().ACS()
	if !ok {
		t.Fatal("downstream port should have ACS")
	}
	acs.SetRedirect(true)
	r := f.RouteDMA(vfA, vfB.BAR(0)+0x10, true)
	if r.BypassedIOMMU {
		t.Fatal("redirected P2P must not bypass IOMMU")
	}
	if !r.Blocked {
		t.Fatal("unmapped P2P through IOMMU should be blocked")
	}
	if ft.calls != 1 {
		t.Fatal("IOMMU should validate redirected P2P")
	}
}

func TestDescribe(t *testing.T) {
	f, devA, pfA, _, _ := buildFabric(t)
	devA.SetVFsPresent(pfA, 2)
	out := f.Describe()
	for _, want := range []string{"root complex", "sw0/down0", "ethA@", "ethA-vf0", "[enabled]", "[disabled]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
}

func TestMSIXTableLocation(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10ca)
	m := AddMSIXCap(c, 0x70, 3, 3, 0x2000)
	if m.TableBIR() != 3 {
		t.Fatalf("BIR = %d", m.TableBIR())
	}
	if off := c.Read32(m.Offset()+4) &^ 0x7; off != 0x2000 {
		t.Fatalf("offset = %#x", off)
	}
	if m.Offset() != 0x70 {
		t.Fatalf("cap offset = %#x", m.Offset())
	}
}

func TestCapabilitiesSurviveNonPresentConstruction(t *testing.T) {
	// Hardware initializes a VF's capabilities before VF Enable makes the
	// function respond on the bus; the contents must be intact afterwards.
	c := NewConfigSpace(0x8086, 0x10ca)
	c.SetPresent(false)
	AddMSIXCap(c, 0x70, 3, 3, 0)
	AddMSICap(c, 0x50, 2)
	c.SetPresent(true)
	mx, ok := MSIXCapAt(c)
	if size := c.Read16(mx.Offset()+2)&0x7ff + 1; !ok || size != 3 || mx.TableBIR() != 3 {
		t.Fatalf("MSI-X cap lost: ok=%v size=%d bir=%d", ok, size, mx.TableBIR())
	}
	if _, ok := MSICapAt(c); !ok {
		t.Fatal("MSI cap lost")
	}
}

func TestSmallAccessors(t *testing.T) {
	f := NewFunction("nic", MakeRID(1, 0, 0), 0x8086, 0x10c9)
	if f.Name() != "nic" {
		t.Fatal("Name")
	}
	var got uint32
	f.OnConfigWrite = func(off, size int, val uint32) { got = val }
	f.ConfigWrite32(0x44, 0xcafebabe)
	if got != 0xcafebabe || f.Config().Read32(0x44) != 0xcafebabe {
		t.Fatal("ConfigWrite32")
	}
	sw := NewSwitch("sw", 2)
	if sw.Name() != "sw" || len(sw.downstream) != 2 {
		t.Fatal("switch accessors")
	}
	if sw.Downstream(0).Name() == "" {
		t.Fatal("port name")
	}
	if _, ok := sw.Downstream(1).ACS(); !ok {
		t.Fatal("downstream ports carry ACS")
	}
	for _, k := range []PortKind{RootPort, SwitchUpstream, SwitchDownstream, PortKind(9)} {
		if k.String() == "" {
			t.Fatal("kind string")
		}
	}
}

func TestMMIOTargetApertureAndIndex(t *testing.T) {
	f, devA, pfA, devB, pfB := buildFabric(t)
	f.Enumerate()
	// Host-memory GPAs sit below the MMIO aperture: the quick-reject must
	// turn them away without consulting the interval index.
	if _, _, ok := f.MMIOTarget(0x1000); ok {
		t.Fatal("host-memory address decoded as MMIO")
	}
	if _, _, ok := f.MMIOTarget(0); ok {
		t.Fatal("null address decoded as MMIO")
	}
	// Enumerated PFs resolve to the right function and BAR.
	for _, pf := range []*Function{pfA, pfB} {
		fn, bar, ok := f.MMIOTarget(pf.BAR(0) + 0x10)
		if !ok || fn != pf || bar != 0 {
			t.Fatalf("decode %s BAR0: fn=%v bar=%d ok=%v", pf.Name(), fn, bar, ok)
		}
	}
	// One past the end of the aperture must miss.
	devA.SetVFsPresent(pfA, 7)
	devB.SetVFsPresent(pfB, 7)
	// A VF hot-added after the index was first built must be found: the
	// new BAR assignment marks the index dirty and the next lookup rebuilds.
	vf := devA.VFs(pfA)[0]
	if _, err := f.HotAdd(vf.RID()); err != nil {
		t.Fatal(err)
	}
	fn, bar, ok := f.MMIOTarget(vf.BAR(0) + 0x4)
	if !ok || fn != vf || bar != 0 {
		t.Fatalf("decode hot-added VF BAR0: fn=%v bar=%d ok=%v", fn, bar, ok)
	}
}

func TestMMIOTargetSurpriseRemoval(t *testing.T) {
	f, devA, pfA, _, _ := buildFabric(t)
	f.Enumerate()
	devA.SetVFsPresent(pfA, 7)
	vf := devA.VFs(pfA)[0]
	if _, err := f.HotAdd(vf.RID()); err != nil {
		t.Fatal(err)
	}
	addr := vf.BAR(0) + 0x8
	if _, _, ok := f.MMIOTarget(addr); !ok {
		t.Fatal("VF BAR not decoded before removal")
	}
	// Surprise removal flips presence but leaves the stale BAR range in the
	// index; the presence check inside OwnsMMIO must reject the decode.
	vf.Config().SetPresent(false)
	if fn, _, ok := f.MMIOTarget(addr); ok {
		t.Fatalf("removed function %v still claims MMIO", fn)
	}
	// Re-insertion restores decode through the same index entry.
	vf.Config().SetPresent(true)
	if fn, _, ok := f.MMIOTarget(addr); !ok || fn != vf {
		t.Fatal("re-present function should decode again")
	}
}
