// Package mem models physical memory and per-domain address spaces.
//
// The simulator never stores page contents — only the structure that the
// paper's mechanisms depend on: the guest-physical to machine-physical (p2m)
// mapping that the IOMMU consults for DMA remapping, and the dirty-page
// tracking that drives live migration pre-copy.
package mem

import (
	"fmt"

	"repro/internal/units"
)

// PageSize is the only page size the model supports (4 KiB, as in the
// paper's x86 testbed).
const PageSize units.Size = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// GPA is a guest-physical address.
type GPA uint64

// PageOf reports the page frame number containing the address.
func (a GPA) PageOf() uint64 { return uint64(a) >> PageShift }

// Machine is the host physical memory allocator. Machine frame numbers
// (MFNs) are handed out sequentially; the simulator never reuses them, which
// keeps "did two domains get the same frame?" checks trivial.
type Machine struct {
	totalPages uint64
	nextFree   uint64
}

// NewMachine creates host memory of the given size.
func NewMachine(size units.Size) *Machine {
	return &Machine{totalPages: uint64(size / PageSize)}
}

// FreePages reports the number of unallocated frames.
func (m *Machine) FreePages() uint64 { return m.totalPages - m.nextFree }

// AllocPages allocates n contiguous machine frames and returns the first
// MFN. It fails when memory is exhausted.
func (m *Machine) AllocPages(n uint64) (uint64, error) {
	if m.nextFree+n > m.totalPages {
		return 0, fmt.Errorf("mem: out of machine memory (%d pages requested, %d free)", n, m.FreePages())
	}
	first := m.nextFree
	m.nextFree += n
	return first, nil
}

// DomainMemory is one guest's physical address space: the p2m mapping
// guest frame numbers to machine frame numbers, plus the log-dirty bitmap
// live migration reads.
type DomainMemory struct {
	size units.Size
	// base is the machine frame of gfn 0: a domain's frames are one
	// contiguous machine extent, so its p2m is base + gfn.
	base  uint64
	pages uint64
	// dirty is the log-dirty bitmap, one bit per guest frame, allocated
	// when tracking first starts.
	dirty    []uint64
	tracking bool
	dirtyCnt uint64
}

// NewDomainMemory allocates a guest address space of the given size, backed
// by frames from machine. The mapping is intentionally non-identity (offset
// by the allocation base) so translation bugs surface in tests.
func NewDomainMemory(machine *Machine, size units.Size) (*DomainMemory, error) {
	pages := uint64(size / PageSize)
	if pages == 0 {
		return nil, fmt.Errorf("mem: domain size %v below one page", size)
	}
	base, err := machine.AllocPages(pages)
	if err != nil {
		return nil, err
	}
	return &DomainMemory{size: size, base: base, pages: pages}, nil
}

// Size reports the domain's memory size.
func (d *DomainMemory) Size() units.Size { return d.size }

// Pages reports the number of guest frames.
func (d *DomainMemory) Pages() uint64 { return d.pages }

// MFN reports the machine frame backing guest frame gfn.
func (d *DomainMemory) MFN(gfn uint64) (uint64, error) {
	if gfn >= d.pages {
		return 0, fmt.Errorf("mem: gfn %d outside domain", gfn)
	}
	return d.base + gfn, nil
}

// StartDirtyTracking clears the dirty bitmap and begins recording writes
// (log-dirty mode, switched on at the start of pre-copy).
func (d *DomainMemory) StartDirtyTracking() {
	d.tracking = true
	if d.dirty == nil {
		d.dirty = make([]uint64, (d.pages+63)/64)
	}
	clear(d.dirty)
	d.dirtyCnt = 0
}

// StopDirtyTracking ends log-dirty mode.
func (d *DomainMemory) StopDirtyTracking() { d.tracking = false }

// MarkDirty records a CPU or emulated-device write to the page holding a.
// Writes performed by passthrough-device DMA bypass this — that is exactly
// the migration problem DNIS solves — so the NIC model only calls MarkDirty
// for paths that go through the VMM.
func (d *DomainMemory) MarkDirty(a GPA) {
	if !d.tracking {
		return
	}
	gfn := a.PageOf()
	if gfn >= d.pages {
		return
	}
	if w, bit := &d.dirty[gfn>>6], uint64(1)<<(gfn&63); *w&bit == 0 {
		*w |= bit
		d.dirtyCnt++
	}
}

// HarvestDirty returns the number of dirty pages and clears the bitmap, as
// one pre-copy round does.
func (d *DomainMemory) HarvestDirty() uint64 {
	n := d.dirtyCnt
	clear(d.dirty)
	d.dirtyCnt = 0
	return n
}
