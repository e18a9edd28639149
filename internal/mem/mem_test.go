package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// translate maps a guest-physical address to its machine address through
// the p2m, the lookup the IOMMU's page tables are built from.
func translate(d *DomainMemory, a GPA) (uint64, error) {
	mfn, err := d.MFN(a.PageOf())
	if err != nil {
		return 0, err
	}
	return mfn<<PageShift | uint64(a)&(uint64(PageSize)-1), nil
}

func TestMachineAlloc(t *testing.T) {
	m := NewMachine(1 * units.MiB) // 256 pages
	if m.totalPages != 256 {
		t.Fatalf("total pages = %d", m.totalPages)
	}
	a, err := m.AllocPages(100)
	if err != nil || a != 0 {
		t.Fatalf("first alloc: %d, %v", a, err)
	}
	b, err := m.AllocPages(100)
	if err != nil || b != 100 {
		t.Fatalf("second alloc: %d, %v", b, err)
	}
	if m.FreePages() != 56 {
		t.Fatalf("free = %d", m.FreePages())
	}
	if _, err := m.AllocPages(57); err == nil {
		t.Fatal("over-allocation should fail")
	}
}

func TestDomainTranslate(t *testing.T) {
	m := NewMachine(16 * units.MiB)
	// Burn some pages so the domain's base is non-zero and translation
	// is visibly non-identity.
	m.AllocPages(10)
	d, err := NewDomainMemory(m, 1*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	h, err := translate(d, GPA(0x2345))
	if err != nil {
		t.Fatal(err)
	}
	// gfn 2 maps to mfn 12; offset 0x345 preserved.
	want := uint64(12<<PageShift | 0x345)
	if h != want {
		t.Fatalf("translate = %#x, want %#x", h, want)
	}
	if _, err := translate(d, GPA(2*units.MiB)); err == nil {
		t.Fatal("out-of-range GPA should fail")
	}
}

func TestDomainMFN(t *testing.T) {
	m := NewMachine(1 * units.MiB)
	d, _ := NewDomainMemory(m, 64*units.KiB)
	if _, err := d.MFN(16); err == nil {
		t.Fatal("out-of-range gfn should fail")
	}
	mfn, err := d.MFN(3)
	if err != nil || mfn != 3 {
		t.Fatalf("mfn = %d, %v", mfn, err)
	}
}

func TestDomainTooSmall(t *testing.T) {
	m := NewMachine(1 * units.MiB)
	if _, err := NewDomainMemory(m, 100); err == nil {
		t.Fatal("sub-page domain should fail")
	}
}

func TestDirtyTracking(t *testing.T) {
	m := NewMachine(4 * units.MiB)
	d, _ := NewDomainMemory(m, 1*units.MiB)
	// Writes before tracking are not recorded.
	d.MarkDirty(GPA(0))
	if d.dirtyCnt != 0 {
		t.Fatal("dirty recorded before tracking")
	}
	d.StartDirtyTracking()
	if !d.tracking {
		t.Fatal("tracking should be on")
	}
	d.MarkDirty(GPA(0))
	d.MarkDirty(GPA(100))                 // same page
	d.MarkDirty(GPA(PageSize.Bits() / 8)) // page 1
	if d.dirtyCnt != 2 {
		t.Fatalf("dirty = %d, want 2", d.dirtyCnt)
	}
	if n := d.HarvestDirty(); n != 2 {
		t.Fatalf("harvest = %d", n)
	}
	if d.dirtyCnt != 0 {
		t.Fatal("harvest should clear")
	}
	// Tracking continues after harvest.
	for gfn := uint64(5); gfn < 8; gfn++ {
		d.MarkDirty(GPA(gfn << PageShift))
	}
	if d.dirtyCnt != 3 {
		t.Fatalf("dirty after harvest = %d", d.dirtyCnt)
	}
	// Frames on either side of a bitmap word boundary and the last frame
	// count once each; a write past the domain is ignored.
	last := d.Pages() - 1
	for _, gfn := range []uint64{63, 64, 63, last, last + 1} {
		d.MarkDirty(GPA(gfn << PageShift))
	}
	if n := d.HarvestDirty(); n != 6 {
		t.Fatalf("harvest = %d, want 6", n)
	}
	d.MarkDirty(GPA(64 << PageShift))
	if d.dirtyCnt != 1 {
		t.Fatalf("dirty after second harvest = %d, want 1", d.dirtyCnt)
	}
	d.StopDirtyTracking()
	d.MarkDirty(GPA(0x9000))
	if d.dirtyCnt != 1 {
		t.Fatal("writes after stop should not be recorded")
	}
}

func TestTranslateRoundTripProperty(t *testing.T) {
	m := NewMachine(64 * units.MiB)
	m.AllocPages(1000)
	d, _ := NewDomainMemory(m, 16*units.MiB)
	prop := func(raw uint32) bool {
		a := GPA(uint64(raw) % uint64(d.Size()))
		h, err := translate(d, a)
		if err != nil {
			return false
		}
		// Offset preserved, frame is the allocated one.
		if h&(uint64(PageSize)-1) != uint64(a)&(uint64(PageSize)-1) {
			return false
		}
		mfn, err := d.MFN(a.PageOf())
		return err == nil && h>>PageShift == mfn
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDomainsDisjointProperty(t *testing.T) {
	// Two domains never share a machine frame.
	m := NewMachine(64 * units.MiB)
	d1, _ := NewDomainMemory(m, 4*units.MiB)
	d2, _ := NewDomainMemory(m, 4*units.MiB)
	seen := make(map[uint64]bool)
	for g := uint64(0); g < d1.Pages(); g++ {
		mfn, _ := d1.MFN(g)
		seen[mfn] = true
	}
	for g := uint64(0); g < d2.Pages(); g++ {
		mfn, _ := d2.MFN(g)
		if seen[mfn] {
			t.Fatalf("frame %d shared between domains", mfn)
		}
	}
}
