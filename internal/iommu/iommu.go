// Package iommu models a VT-d style I/O memory management unit: a context
// table mapping PCIe requester IDs to per-domain page tables, a multi-level
// page-table walk that translates device-visible (guest-physical) addresses
// to machine addresses, and an IOTLB that caches translations.
//
// The IOMMU is what lets SR-IOV inherit Direct I/O's safety: the VF driver
// programs guest-physical DMA addresses, and the hardware — not the VMM —
// remaps and validates them per RID (§2).
package iommu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
)

// levels and bits of the modeled page table (3-level, 9 bits per level,
// 4 KiB pages: 39-bit device address space, plenty for the testbed).
const (
	ptLevels    = 3
	ptLevelBits = 9
	ptFanout    = 1 << ptLevelBits
)

// Fault is a DMA remapping fault: the transaction was rejected.
type Fault struct {
	RID    uint16
	Addr   uint64
	Write  bool
	Reason string
}

func (f *Fault) Error() string {
	rw := "read"
	if f.Write {
		rw = "write"
	}
	return fmt.Sprintf("iommu: %s fault: rid %#04x addr %#x: %s", rw, f.RID, f.Addr, f.Reason)
}

// pageTable is a software model of the multi-level structure. Nodes are
// allocated lazily.
type pageTable struct {
	root *ptNode
}

type ptNode struct {
	children [ptFanout]*ptNode // interior
	leaves   [ptFanout]ptLeaf  // level-1 node entries
	isLeaf   bool
}

type ptLeaf struct {
	mfn      uint64
	present  bool
	writable bool
}

func (pt *pageTable) map4k(gfn, mfn uint64, writable bool) {
	if pt.root == nil {
		pt.root = &ptNode{}
	}
	n := pt.root
	for lvl := ptLevels - 1; lvl >= 1; lvl-- {
		idx := (gfn >> uint(lvl*ptLevelBits)) & (ptFanout - 1)
		if lvl == 1 {
			if n.children[idx] == nil {
				n.children[idx] = &ptNode{isLeaf: true}
			}
			n = n.children[idx]
			break
		}
		if n.children[idx] == nil {
			n.children[idx] = &ptNode{}
		}
		n = n.children[idx]
	}
	n.leaves[gfn&(ptFanout-1)] = ptLeaf{mfn: mfn, present: true, writable: writable}
}

// walk returns the leaf for gfn and the number of memory accesses the walk
// took (for cost accounting), or present=false.
func (pt *pageTable) walk(gfn uint64) (ptLeaf, int) {
	if pt.root == nil {
		return ptLeaf{}, 1
	}
	n := pt.root
	hops := 0
	for lvl := ptLevels - 1; lvl >= 1; lvl-- {
		hops++
		idx := (gfn >> uint(lvl*ptLevelBits)) & (ptFanout - 1)
		next := n.children[idx]
		if next == nil {
			return ptLeaf{}, hops
		}
		n = next
		if n.isLeaf {
			break
		}
	}
	hops++
	return n.leaves[gfn&(ptFanout-1)], hops
}

// iotlbEntry is one cached translation.
type iotlbEntry struct {
	rid      uint16
	gfn      uint64
	mfn      uint64
	writable bool
	// LRU bookkeeping.
	prev, next *iotlbEntry
}

type iotlbKey struct {
	rid uint16
	gfn uint64
}

// IOTLB is a set-associative-as-LRU translation cache with hit/miss
// counters.
type IOTLB struct {
	capacity int
	entries  map[iotlbKey]*iotlbEntry
	head     *iotlbEntry // most recent
	tail     *iotlbEntry // least recent
	// free recycles evicted/invalidated entries so a full cache churning
	// at miss rate stops allocating once it has seen capacity entries.
	free   *iotlbEntry // singly linked through next
	Hits   int64
	Misses int64
}

// NewIOTLB creates a cache holding up to capacity translations.
func NewIOTLB(capacity int) *IOTLB {
	if capacity <= 0 {
		panic("iommu: IOTLB capacity must be positive")
	}
	return &IOTLB{capacity: capacity, entries: make(map[iotlbKey]*iotlbEntry)}
}

func (t *IOTLB) lookup(rid uint16, gfn uint64) (*iotlbEntry, bool) {
	e, ok := t.entries[iotlbKey{rid, gfn}]
	if !ok {
		t.Misses++
		return nil, false
	}
	t.Hits++
	t.touch(e)
	return e, true
}

func (t *IOTLB) insert(rid uint16, gfn, mfn uint64, writable bool) {
	key := iotlbKey{rid, gfn}
	if e, ok := t.entries[key]; ok {
		e.mfn, e.writable = mfn, writable
		t.touch(e)
		return
	}
	if len(t.entries) >= t.capacity {
		t.evict()
	}
	e := t.free
	if e != nil {
		t.free = e.next
		e.next = nil
	} else {
		e = &iotlbEntry{}
	}
	e.rid, e.gfn, e.mfn, e.writable = rid, gfn, mfn, writable
	t.entries[key] = e
	t.pushFront(e)
}

// release recycles an unlinked entry into the free list.
func (t *IOTLB) release(e *iotlbEntry) {
	e.next = t.free
	t.free = e
}

func (t *IOTLB) touch(e *iotlbEntry) {
	t.unlink(e)
	t.pushFront(e)
}

func (t *IOTLB) pushFront(e *iotlbEntry) {
	e.prev = nil
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

func (t *IOTLB) unlink(e *iotlbEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if t.head == e {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if t.tail == e {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (t *IOTLB) evict() {
	victim := t.tail
	if victim == nil {
		return
	}
	t.unlink(victim)
	delete(t.entries, iotlbKey{victim.rid, victim.gfn})
	t.release(victim)
}

// InvalidateRID drops all cached translations for a requester.
func (t *IOTLB) InvalidateRID(rid uint16) {
	for k, e := range t.entries {
		if k.rid == rid {
			t.unlink(e)
			delete(t.entries, k)
			t.release(e)
		}
	}
}

// Len reports the number of cached translations.
func (t *IOTLB) Len() int { return len(t.entries) }

// context is one requester's remapping state.
type context struct {
	domainID int
	pt       *pageTable
}

// IOMMU is the remapping engine.
type IOMMU struct {
	contexts map[uint16]*context
	tlb      *IOTLB
	// irte is the interrupt-remapping table, vector → allowed requester
	// (vectors are globally unique in this system, §4.1).
	irte map[uint8]IRTE
	// Faults records rejected transactions for inspection.
	Faults []Fault

	// Counters is the unit's own registry: "dma", "ptwalk_accesses",
	// "faults", "irte_programmed", "irte_cleared", "msi_blocked" and
	// "msi_remapped". New resolves each one into the fields below, so the
	// DMA and MSI paths increment a field instead of hashing a name.
	Counters                    *obs.Registry
	dma, walks, faults          *obs.Counter
	irteProgrammed, irteCleared *obs.Counter
	msiBlocked, msiRemapped     *obs.Counter
}

// New creates an IOMMU with the given IOTLB capacity.
func New(iotlbCapacity int) *IOMMU {
	r := obs.NewRegistry()
	return &IOMMU{
		contexts:       make(map[uint16]*context),
		tlb:            NewIOTLB(iotlbCapacity),
		Counters:       r,
		dma:            r.Counter("dma"),
		walks:          r.Counter("ptwalk_accesses"),
		faults:         r.Counter("faults"),
		irteProgrammed: r.Counter("irte_programmed"),
		irteCleared:    r.Counter("irte_cleared"),
		msiBlocked:     r.Counter("msi_blocked"),
		msiRemapped:    r.Counter("msi_remapped"),
	}
}

// TLB exposes the IOTLB for inspection.
func (u *IOMMU) TLB() *IOTLB { return u.tlb }

// AttachDomain binds a requester ID to a remapping domain. Subsequent Map
// calls for the RID populate that domain's page table. Two RIDs attached to
// the same domainID share a page table, as two queues of one VF would.
func (u *IOMMU) AttachDomain(rid uint16, domainID int) {
	for _, c := range u.contexts {
		if c.domainID == domainID {
			u.contexts[rid] = &context{domainID: domainID, pt: c.pt}
			return
		}
	}
	u.contexts[rid] = &context{domainID: domainID, pt: &pageTable{}}
}

// DetachRID removes a requester's context and flushes its IOTLB entries —
// what device hot-removal (DNIS) does before migration.
func (u *IOMMU) DetachRID(rid uint16) {
	delete(u.contexts, rid)
	u.tlb.InvalidateRID(rid)
}

// Attached reports whether the RID has a context.
func (u *IOMMU) Attached(rid uint16) bool {
	_, ok := u.contexts[rid]
	return ok
}

// DomainOf reports the domain a RID is attached to.
func (u *IOMMU) DomainOf(rid uint16) (int, bool) {
	c, ok := u.contexts[rid]
	if !ok {
		return 0, false
	}
	return c.domainID, true
}

// Map installs a 4 KiB translation gfn→mfn for the RID's domain.
func (u *IOMMU) Map(rid uint16, gfn, mfn uint64, writable bool) error {
	c, ok := u.contexts[rid]
	if !ok {
		return fmt.Errorf("iommu: rid %#04x has no context", rid)
	}
	c.pt.map4k(gfn, mfn, writable)
	return nil
}

// MapDomainMemory installs translations for a whole guest address space —
// what assigning a device to a VM does (the VMM maps the guest's p2m into
// the IOMMU so the guest can DMA anywhere in its own memory, and nowhere
// else).
func (u *IOMMU) MapDomainMemory(rid uint16, dm *mem.DomainMemory) error {
	for gfn := uint64(0); gfn < dm.Pages(); gfn++ {
		mfn, err := dm.MFN(gfn)
		if err != nil {
			return err
		}
		if err := u.Map(rid, gfn, mfn, true); err != nil {
			return err
		}
	}
	return nil
}

// TranslateDMA validates and translates one transaction. It satisfies
// pcie.Translator. Faults are recorded and returned as *Fault errors.
func (u *IOMMU) TranslateDMA(rid uint16, addr uint64, write bool) (uint64, error) {
	u.dma.Inc()
	c, ok := u.contexts[rid]
	if !ok {
		return 0, u.fault(rid, addr, write, "no context for requester")
	}
	gfn := addr >> mem.PageShift
	off := addr & (uint64(mem.PageSize) - 1)
	if e, hit := u.tlb.lookup(rid, gfn); hit {
		if write && !e.writable {
			return 0, u.fault(rid, addr, write, "write to read-only mapping")
		}
		return e.mfn<<mem.PageShift | off, nil
	}
	leaf, hops := c.pt.walk(gfn)
	u.walks.Add(int64(hops))
	if !leaf.present {
		return 0, u.fault(rid, addr, write, "not mapped")
	}
	if write && !leaf.writable {
		return 0, u.fault(rid, addr, write, "write to read-only mapping")
	}
	u.tlb.insert(rid, gfn, leaf.mfn, leaf.writable)
	return leaf.mfn<<mem.PageShift | off, nil
}

func (u *IOMMU) fault(rid uint16, addr uint64, write bool, reason string) error {
	f := Fault{RID: rid, Addr: addr, Write: write, Reason: reason}
	u.Faults = append(u.Faults, f)
	u.faults.Inc()
	return &f
}
