package iommu

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/units"
)

// ptFanout is the number of entries in one table of the materialised radix
// table.
const ptFanout = 1 << ptLevelBits

// radixTable is the materialised 3-level table the extent list replaced: a
// root directory and middle directories of ptFanout pointers each, and
// leaf tables of ptFanout 64-bit PTEs, each table allocated on first map.
// It is the differential oracle for FuzzPageTableMatchesRadix.
type radixTable struct {
	root *radixRoot
}

type (
	radixRoot   [ptFanout]*radixMid
	radixMid    [ptFanout]*radixLeaves
	radixLeaves [ptFanout]pte
)

// ptIndex is gfn's entry index in a table of the given level (0 = leaf).
func ptIndex(gfn uint64, level int) uint64 {
	return gfn >> (level * ptLevelBits) & (ptFanout - 1)
}

func (pt *radixTable) map4k(gfn, mfn uint64, writable bool) {
	if pt.root == nil {
		pt.root = new(radixRoot)
	}
	mid := &pt.root[ptIndex(gfn, 2)]
	if *mid == nil {
		*mid = new(radixMid)
	}
	leaves := &(*mid)[ptIndex(gfn, 1)]
	if *leaves == nil {
		*leaves = new(radixLeaves)
	}
	(*leaves)[ptIndex(gfn, 0)] = newPTE(mfn, writable)
}

// mapRange is Map's contract over the radix table, one page at a time: an
// empty extent, one whose pages do not all decode within one 39-bit reach,
// or one whose last frame overflows a PTE's 52 address bits is refused
// before any page is written.
func (pt *radixTable) mapRange(gfn, mfn, n uint64, writable bool) bool {
	if n == 0 || (gfn+n-1)>>27 != gfn>>27 || mfn+n-1 >= 1<<52 {
		return false
	}
	for i := uint64(0); i < n; i++ {
		pt.map4k(gfn+i, mfn+i, writable)
	}
	return true
}

// walk returns the PTE for gfn and the number of memory accesses the walk
// took; a walk that meets a missing table stops there with a non-present
// entry.
func (pt *radixTable) walk(gfn uint64) (pte, int) {
	if pt.root == nil {
		return 0, 1
	}
	mid := pt.root[ptIndex(gfn, 2)]
	if mid == nil {
		return 0, 1
	}
	leaves := mid[ptIndex(gfn, 1)]
	if leaves == nil {
		return 0, 2
	}
	return leaves[ptIndex(gfn, 0)], ptLevels
}

// fuzzPTBases are the frames FuzzPageTableMatchesRadix maps and probes
// around: the bottom of the space, leaf-table and directory boundaries,
// and the top of the 39-bit reach.
var fuzzPTBases = [...]uint64{0, 500, 1<<18 - 300, 1 << 18, 2<<18 + 1000, 1<<27 - 600}

// fuzzPTGFN picks a frame near one of the bases; the selector's top bits
// alias it above the table's reach.
func fuzzPTGFN(sel, off byte) uint64 {
	gfn := fuzzPTBases[int(sel&7)%len(fuzzPTBases)] + uint64(off)*3
	return gfn | uint64(sel>>5)<<27
}

// FuzzPageTableMatchesRadix drives random Map sequences through the extent
// table and, in lockstep, the materialised radix table: single pages and
// multi-page extents, overlapping ones, gfns aliased above the 39-bit
// reach, and extents Map must refuse. After every call both must agree on
// the error and, for the extent's edges, its aliases and every base, on
// the frame, writable bit, presence and hop count of a walk.
func FuzzPageTableMatchesRadix(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 1, 0, 2, 0, 0, 3, 4, 1, 1, 40, 1, 0, 1, 0, 7, 3, 2, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 90, 0, 4, 0, 0, 2, 0, 0xa3, 10, 0, 0, 0, 0, 3, 1, 5, 150, 0, 4, 176, 1, 1})
	f.Add([]byte{2, 5, 199, 0, 0, 0, 0, 6, 2, 0, 0, 0, 2, 9, 0, 3, 1, 0x25, 100, 1, 2, 88, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		u := New(1)
		u.AttachDomain(1, 1)
		pt := u.context(1).pt
		var ref radixTable
		for i := 0; i+7 < len(ops); i += 8 {
			op := ops[i : i+8]
			gfn := fuzzPTGFN(op[1], op[2])
			n := uint64(1)
			if op[0]%3 != 0 {
				n = (uint64(op[4])<<8 | uint64(op[5])) % 1200
			}
			mfn := uint64(op[6])<<20 | uint64(op[7])
			if op[0]%3 == 2 {
				// Frames at the top of a PTE's 52 bits, some overflowing.
				mfn = 1<<52 - 1 - uint64(op[6])<<2
			}
			writable := op[3]&1 == 0
			err := u.Map(1, gfn, mfn, n, writable)
			ok := ref.mapRange(gfn, mfn, n, writable)
			if (err == nil) != ok {
				t.Fatalf("op %d: Map(%#x, %#x, %d) = %v, radix accepted %v", i, gfn, mfn, n, err, ok)
			}
			probes := []uint64{gfn - 1, gfn, gfn + n - 1, gfn + n, gfn + ptFanout, gfn - ptFanout, gfn ^ 1<<27, gfn + 1<<28}
			for _, b := range fuzzPTBases {
				probes = append(probes, b, b+ptFanout*ptFanout, b|3<<27)
			}
			for _, p := range probes {
				e, hops := pt.walk(p)
				re, rhops := ref.walk(p)
				if e != re || hops != rhops {
					t.Fatalf("op %d: walk(%#x) = pte %#x in %d hops, radix %#x in %d", i, p, e, hops, re, rhops)
				}
			}
		}
	})
}

// TestMapDomainMemoryCostIndependentOfSize pins assignment at one extent:
// mapping a 2 GiB guest allocates the same objects and bytes as mapping a
// 128 MiB one.
func TestMapDomainMemoryCostIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cost := func(size units.Size) (mallocs, bytes uint64) {
		dm, err := mem.NewDomainMemory(mem.NewMachine(size), size)
		if err != nil {
			t.Fatal(err)
		}
		u := New(16)
		u.AttachDomain(1, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = u.MapDomainMemory(1, dm)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	smallN, smallB := cost(128 * units.MiB)
	bigN, bigB := cost(2 * units.GiB)
	if smallN != bigN || smallB != bigB {
		t.Fatalf("MapDomainMemory: 128 MiB takes %d allocs / %d B, 2 GiB takes %d / %d", smallN, smallB, bigN, bigB)
	}
}
