package iommu

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/units"
)

func TestTranslateBasic(t *testing.T) {
	u := New(64)
	u.AttachDomain(0x100, 1)
	if err := u.Map(0x100, 5, 105, true); err != nil {
		t.Fatal(err)
	}
	got, err := u.TranslateDMA(0x100, 5<<mem.PageShift|0x123, true)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(105)<<mem.PageShift | 0x123
	if got != want {
		t.Fatalf("translate = %#x, want %#x", got, want)
	}
}

func TestTranslateFaults(t *testing.T) {
	u := New(64)
	// Unknown RID.
	if _, err := u.TranslateDMA(0x200, 0, false); err == nil {
		t.Fatal("unknown RID should fault")
	}
	u.AttachDomain(0x100, 1)
	// Unmapped address.
	if _, err := u.TranslateDMA(0x100, 0x9000, false); err == nil {
		t.Fatal("unmapped address should fault")
	}
	// Read-only mapping.
	u.Map(0x100, 1, 11, false)
	if _, err := u.TranslateDMA(0x100, 1<<mem.PageShift, true); err == nil {
		t.Fatal("write to read-only should fault")
	}
	if _, err := u.TranslateDMA(0x100, 1<<mem.PageShift, false); err != nil {
		t.Fatalf("read of read-only mapping failed: %v", err)
	}
	// Three faults total: unknown RID, unmapped, read-only write.
	if len(u.Faults) != 3 {
		t.Fatalf("faults recorded = %d, want 3", len(u.Faults))
	}
	if u.Counters.Get("faults") != 3 {
		t.Fatal("fault counter")
	}
	// A frame wider than a PTE's 52 address bits is refused at map time,
	// and the largest one that fits round-trips.
	if err := u.Map(0x100, 2, 1<<52, true); err == nil {
		t.Fatal("mapping a frame beyond 52 bits should fail")
	}
	if err := u.Map(0x100, 2, 1<<52-1, true); err != nil {
		t.Fatal(err)
	}
	if got, err := u.TranslateDMA(0x100, 2<<mem.PageShift|5, true); err != nil || got != (1<<52-1)<<mem.PageShift|5 {
		t.Fatalf("widest frame translated to %#x, %v", got, err)
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{RID: 0x100, Addr: 0x1000, Write: true, Reason: "not mapped"}
	msg := f.Error()
	if msg == "" || msg[:5] != "iommu" {
		t.Fatalf("error = %q", msg)
	}
}

func TestRIDsShareDomainPageTable(t *testing.T) {
	u := New(64)
	u.AttachDomain(0x100, 7)
	u.AttachDomain(0x101, 7) // same domain
	u.Map(0x100, 3, 33, true)
	// The mapping installed through RID 0x100 is visible through 0x101.
	got, err := u.TranslateDMA(0x101, 3<<mem.PageShift, false)
	if err != nil {
		t.Fatal(err)
	}
	if got>>mem.PageShift != 33 {
		t.Fatalf("shared table translate = %#x", got)
	}
	if d, ok := u.DomainOf(0x101); !ok || d != 7 {
		t.Fatal("DomainOf")
	}
}

func TestDetachRID(t *testing.T) {
	u := New(64)
	u.AttachDomain(0x100, 1)
	u.Map(0x100, 1, 11, true)
	u.TranslateDMA(0x100, 1<<mem.PageShift, false) // warm the IOTLB
	u.DetachRID(0x100)
	if u.Attached(0x100) {
		t.Fatal("still attached")
	}
	if _, err := u.TranslateDMA(0x100, 1<<mem.PageShift, false); err == nil {
		t.Fatal("detached RID should fault")
	}
	if u.TLB().Len() != 0 {
		t.Fatal("IOTLB entries should be flushed on detach")
	}
}

// TestUnmapInvalidates checks that tearing a requester's mappings down (a
// detach, as DNIS hot-removal does) leaves no stale IOTLB entry behind: once
// the RID is re-attached to a new domain, an address it used before walks
// the new page table instead of hitting the old translation.
func TestUnmapInvalidates(t *testing.T) {
	u := New(64)
	u.AttachDomain(0x100, 1)
	u.Map(0x100, 1, 11, true)
	if _, err := u.TranslateDMA(0x100, 1<<mem.PageShift, false); err != nil {
		t.Fatal(err)
	}
	u.DetachRID(0x100)
	u.AttachDomain(0x100, 2)
	if _, err := u.TranslateDMA(0x100, 1<<mem.PageShift, false); err == nil {
		t.Fatal("unmapped page should fault even after IOTLB hit history")
	}
	u.Map(0x100, 1, 22, true)
	got, err := u.TranslateDMA(0x100, 1<<mem.PageShift, false)
	if err != nil || got != 22<<mem.PageShift {
		t.Fatalf("re-attached translation = %#x, %v; want frame 22", got, err)
	}
}

func TestIOTLBHitMiss(t *testing.T) {
	u := New(64)
	u.AttachDomain(0x100, 1)
	u.Map(0x100, 1, 11, true)
	u.TranslateDMA(0x100, 1<<mem.PageShift, false)
	u.TranslateDMA(0x100, 1<<mem.PageShift, false)
	u.TranslateDMA(0x100, 1<<mem.PageShift, false)
	if u.TLB().Misses != 1 || u.TLB().Hits != 2 {
		t.Fatalf("hits=%d misses=%d", u.TLB().Hits, u.TLB().Misses)
	}
}

func TestIOTLBEviction(t *testing.T) {
	u := New(2)
	u.AttachDomain(0x100, 1)
	for g := uint64(0); g < 3; g++ {
		u.Map(0x100, g, 100+g, true)
		u.TranslateDMA(0x100, g<<mem.PageShift, false)
	}
	if u.TLB().Len() != 2 {
		t.Fatalf("tlb len = %d, want 2 (capacity)", u.TLB().Len())
	}
	// gfn 0 is least recent → evicted; re-translating misses.
	misses := u.TLB().Misses
	u.TranslateDMA(0x100, 0, false)
	if u.TLB().Misses != misses+1 {
		t.Fatal("evicted entry should miss")
	}
	// gfn 2 is most recent → hits.
	hits := u.TLB().Hits
	u.TranslateDMA(0x100, 2<<mem.PageShift, false)
	if u.TLB().Hits != hits+1 {
		t.Fatal("recent entry should hit")
	}
}

func TestIOTLBLRUTouchOnHit(t *testing.T) {
	u := New(2)
	u.AttachDomain(0x100, 1)
	u.Map(0x100, 0, 10, true)
	u.Map(0x100, 1, 11, true)
	u.TranslateDMA(0x100, 0, false)
	u.TranslateDMA(0x100, 1<<mem.PageShift, false)
	// Touch gfn 0 so gfn 1 becomes LRU.
	u.TranslateDMA(0x100, 0, false)
	u.Map(0x100, 2, 12, true)
	u.TranslateDMA(0x100, 2<<mem.PageShift, false) // evicts gfn 1
	hits := u.TLB().Hits
	u.TranslateDMA(0x100, 0, false)
	if u.TLB().Hits != hits+1 {
		t.Fatal("gfn 0 should have been retained")
	}
}

func TestIOTLBBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity should panic")
		}
	}()
	NewIOTLB(0)
}

func TestMapDomainMemory(t *testing.T) {
	machine := mem.NewMachine(16 * units.MiB)
	machine.AllocPages(100) // non-identity base
	dm, err := mem.NewDomainMemory(machine, 1*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	u := New(1024)
	u.AttachDomain(0x100, 1)
	if err := u.MapDomainMemory(0x100, dm); err != nil {
		t.Fatal(err)
	}
	// Every guest page translates to its machine frame.
	for gfn := uint64(0); gfn < dm.Pages(); gfn += 37 {
		gpa := gfn << mem.PageShift
		hpa, err := u.TranslateDMA(0x100, gpa, true)
		if err != nil {
			t.Fatalf("gfn %d: %v", gfn, err)
		}
		wantMFN, _ := dm.MFN(gfn)
		if hpa>>mem.PageShift != wantMFN {
			t.Fatalf("gfn %d → mfn %d, want %d", gfn, hpa>>mem.PageShift, wantMFN)
		}
	}
	// Addresses beyond the domain fault.
	if _, err := u.TranslateDMA(0x100, uint64(2*units.MiB), true); err == nil {
		t.Fatal("out-of-domain DMA should fault")
	}
}

func TestTranslationMatchesP2MProperty(t *testing.T) {
	machine := mem.NewMachine(64 * units.MiB)
	dm, _ := mem.NewDomainMemory(machine, 8*units.MiB)
	u := New(256)
	u.AttachDomain(0x42, 3)
	u.MapDomainMemory(0x42, dm)
	prop := func(raw uint32) bool {
		gpa := uint64(raw) % uint64(dm.Size())
		hpa, err := u.TranslateDMA(0x42, gpa, true)
		if err != nil {
			return false
		}
		mfn, err := dm.MFN(mem.GPA(gpa).PageOf())
		return err == nil && hpa == mfn<<mem.PageShift|gpa&(uint64(mem.PageSize)-1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableSparseAddresses(t *testing.T) {
	// Mappings far apart in the 39-bit space coexist.
	u := New(16)
	u.AttachDomain(1, 1)
	gfns := []uint64{0, 511, 512, 1 << 18, 1<<27 - 1}
	for i, g := range gfns {
		u.Map(1, g, uint64(1000+i), true)
	}
	for i, g := range gfns {
		hpa, err := u.TranslateDMA(1, g<<mem.PageShift, false)
		if err != nil {
			t.Fatalf("gfn %#x: %v", g, err)
		}
		if hpa>>mem.PageShift != uint64(1000+i) {
			t.Fatalf("gfn %#x → %d", g, hpa>>mem.PageShift)
		}
	}
}

func TestCountersTrackWalks(t *testing.T) {
	u := New(16)
	u.AttachDomain(1, 1)
	u.Map(1, 0, 1, true)
	u.TranslateDMA(1, 0, false) // miss → walk
	u.TranslateDMA(1, 0, false) // hit → no walk
	if u.Counters.Get("dma") != 2 {
		t.Fatal("dma counter")
	}
	if u.Counters.Get("ptwalk_accesses") != 3 {
		t.Fatalf("ptwalk_accesses = %d, want 3 (one 3-level walk)", u.Counters.Get("ptwalk_accesses"))
	}
}

// TestTranslateDMAAllocationFree pins the per-DMA path: a hit, and a miss
// that walks the page table and evicts from a full IOTLB, allocate nothing,
// and both still reach the unit's "dma" and "ptwalk_accesses" counters.
func TestTranslateDMAAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	u := New(4)
	u.AttachDomain(1, 1)
	for gfn := uint64(0); gfn < 8; gfn++ {
		u.Map(1, gfn, 100+gfn, true)
	}
	const runs = 100
	hit := testing.AllocsPerRun(runs, func() {
		if _, err := u.TranslateDMA(1, 0, true); err != nil {
			t.Fatal(err)
		}
	})
	misses := u.TLB().Misses
	var gfn uint64
	miss := testing.AllocsPerRun(runs, func() {
		// Cycling through twice the IOTLB's capacity makes every access
		// an LRU miss that evicts.
		gfn = (gfn + 1) % 8
		if _, err := u.TranslateDMA(1, gfn<<mem.PageShift, true); err != nil {
			t.Fatal(err)
		}
	})
	if hit != 0 || miss != 0 {
		t.Fatalf("allocs per TranslateDMA: hit %.0f, miss %.0f, want 0", hit, miss)
	}
	// AllocsPerRun makes one warm-up call before its runs.
	if got := u.TLB().Misses - misses; got != runs+1 {
		t.Fatalf("miss loop missed %d times, want %d", got, runs+1)
	}
	if got, want := u.Counters.Get("dma"), int64(2*(runs+1)); got != want {
		t.Fatalf("dma = %d, want %d", got, want)
	}
	// Every miss is one 3-level walk; the first hit-loop call walked too.
	if got, want := u.Counters.Get("ptwalk_accesses"), int64(3*(runs+2)); got != want {
		t.Fatalf("ptwalk_accesses = %d, want %d", got, want)
	}
}

func TestInterruptRemapping(t *testing.T) {
	u := New(16)
	u.ProgramIRTE(65, 0x0108)
	if e, ok := u.IRTEFor(65); !ok || e.RID != 0x0108 || !e.Present {
		t.Fatalf("IRTE = %+v %v", e, ok)
	}
	// The programmed requester passes.
	if err := u.ValidateMSI(0x0108, 65); err != nil {
		t.Fatal(err)
	}
	// A different requester is rejected — the MSI spoof case.
	if err := u.ValidateMSI(0x0999, 65); err == nil {
		t.Fatal("spoofed MSI should be rejected")
	}
	// An unprogrammed vector is rejected outright.
	if err := u.ValidateMSI(0x0108, 66); err == nil {
		t.Fatal("unmapped vector should be rejected")
	}
	if u.Counters.Get("msi_blocked") != 2 || u.Counters.Get("msi_remapped") != 1 {
		t.Fatalf("msi_blocked = %d, msi_remapped = %d, want 2 and 1",
			u.Counters.Get("msi_blocked"), u.Counters.Get("msi_remapped"))
	}
	u.ClearIRTE(65)
	if err := u.ValidateMSI(0x0108, 65); err == nil {
		t.Fatal("cleared IRTE should reject")
	}
}

// TestValidateMSIAllocationFree pins the per-interrupt remapping check at
// zero allocations on the accepting path every delivered MSI takes.
func TestValidateMSIAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	u := New(16)
	u.ProgramIRTE(65, 0x0108)
	allocs := testing.AllocsPerRun(100, func() {
		if err := u.ValidateMSI(0x0108, 65); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs per ValidateMSI = %.0f, want 0", allocs)
	}
	if got := u.Counters.Get("msi_remapped"); got != 101 {
		t.Fatalf("msi_remapped = %d, want 101", got)
	}
}

// BenchmarkTranslateDMA measures one DMA translation on an IOTLB hit and on
// a miss that walks the page table and evicts.
func BenchmarkTranslateDMA(b *testing.B) {
	u := New(4)
	u.AttachDomain(1, 1)
	for gfn := uint64(0); gfn < 8; gfn++ {
		u.Map(1, gfn, 100+gfn, true)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.TranslateDMA(1, 0, true)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.TranslateDMA(1, uint64(i%8)<<mem.PageShift, true)
		}
	})
	// The testbed's shape: a 4,096-entry IOTLB shared by 60 VFs, each
	// DMAing round robin into twice its share of pages, so every access
	// misses, walks its own page table and evicts.
	b.Run("miss-60vf", func(b *testing.B) {
		const vfs, pages = 60, 2 * 4096 / 60
		u := New(4096)
		for vf := uint16(0); vf < vfs; vf++ {
			u.AttachDomain(0x100+vf, int(vf)+1)
			for gfn := uint64(0); gfn < pages; gfn++ {
				u.Map(0x100+vf, gfn, uint64(vf)<<20|gfn, true)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vf, gfn := uint16(i%vfs), uint64(i/vfs%pages)
			u.TranslateDMA(0x100+vf, gfn<<mem.PageShift, true)
		}
	})
}
