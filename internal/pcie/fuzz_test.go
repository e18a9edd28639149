package pcie

import "testing"

// FuzzConfigSpace drives arbitrary read/write sequences against two config
// spaces with capabilities installed, asserting the invariants that the
// rest of the simulator depends on: no panics on any offset, reads within
// the space echo the last write, out-of-range reads are all-ones, and the
// capability chains stay walkable. The PF-shaped space carries the SR-IOV
// extended capability; the VF-shaped one has none, so its extended region
// reads as zeros until a write lands there.
func FuzzConfigSpace(f *testing.F) {
	f.Add(0x40, uint32(0xdeadbeef), true)
	f.Add(0x44, uint32(0), false)
	f.Add(4095, uint32(1), true)
	f.Add(-1, uint32(7), true)
	f.Add(1<<20, uint32(7), false)
	// Accesses that straddle the legacy/extended boundary at 0x100.
	for off := 0xfc; off <= 0x101; off++ {
		f.Add(off, uint32(0xa1b2c3d4), true)
		f.Add(off, uint32(0xe5f6), false)
	}
	f.Fuzz(func(t *testing.T, off int, val uint32, use32 bool) {
		pf := NewConfigSpace(0x8086, 0x10c9)
		AddMSICap(pf, 0x50, 0)
		AddMSIXCap(pf, 0x70, 3, 3, 0)
		AddSRIOVCap(pf, ExtCapBase, SRIOVConfig{TotalVFs: 7, FirstVFOffset: 8, VFStride: 1, VFDeviceID: 0x10ca})
		vf := NewConfigSpace(0x8086, 0x10ca)
		AddMSIXCap(vf, 0x70, 3, 3, 0)
		AddMSICap(vf, 0x50, 0)
		AddPCIeCap(vf, 0xa0)
		if vf.ext != nil {
			t.Fatal("a VF-shaped space allocated its extended region")
		}
		if got := vf.Read32(ConfigSpaceSize - 4); got != 0 {
			t.Fatalf("unwritten extended Read32 = %#x, want 0", got)
		}

		for _, c := range []*ConfigSpace{pf, vf} {
			if use32 {
				c.Write32(off, val)
				got := c.Read32(off)
				switch {
				case off < 0 || off+4 > ConfigSpaceSize:
					if got != 0xffffffff {
						t.Fatalf("out-of-range Read32(%d) = %#x", off, got)
					}
				case off >= 0x40 && off != 0x50 && off != 0x70: // clear of cap headers we later walk
					if got != val {
						t.Fatalf("Read32(%d) = %#x, want %#x", off, got, val)
					}
				}
			} else {
				c.Write16(off, uint16(val))
				got := c.Read16(off)
				switch {
				case off < 0 || off+2 > ConfigSpaceSize:
					if got != 0xffff {
						t.Fatalf("out-of-range Read16(%d) = %#x", off, got)
					}
				case off >= 0x40:
					if got != uint16(val) {
						t.Fatalf("Read16(%d) = %#x, want %#x", off, got, uint16(val))
					}
				}
			}
			// Chains must never loop or crash, whatever was scribbled.
			c.FindCapability(CapIDMSI)
			c.FindCapability(CapIDMSIX)
			c.FindExtCapability(ExtCapIDSRIOV)
			c.FindExtCapability(ExtCapIDACS)
		}
	})
}
