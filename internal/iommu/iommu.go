// Package iommu models a VT-d style I/O memory management unit: a root
// table of per-bus context tables mapping PCIe requester IDs to per-domain
// page tables, a multi-level page-table walk that translates
// device-visible (guest-physical) addresses to machine addresses, and an
// IOTLB that caches translations.
//
// The IOMMU is what lets SR-IOV inherit Direct I/O's safety: the VF driver
// programs guest-physical DMA addresses, and the hardware — not the VMM —
// remaps and validates them per RID (§2).
package iommu

import (
	"fmt"
	"math/bits"

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

// pageTable is one domain's VT-d second-level table, ptLevels deep: a root
// directory and middle directories of ptFanout pointers each, and leaf
// tables of ptFanout 64-bit PTEs. Each table is allocated on first map.
type pageTable struct {
	root *ptRoot
}

type (
	ptRoot      [ptFanout]*ptMid
	ptMid       [ptFanout]*ptLeafTable
	ptLeafTable [ptFanout]pte
)

// pte is a VT-d second-level page-table entry: bit 0 grants read (the
// entry is present), bit 1 grants write, and bits 12 and up hold the
// machine frame.
type pte uint64

const (
	pteRead  pte = 1 << 0
	pteWrite pte = 1 << 1
)

func newPTE(mfn uint64, writable bool) pte {
	e := pte(mfn<<mem.PageShift) | pteRead
	if writable {
		e |= pteWrite
	}
	return e
}

func (e pte) present() bool  { return e&pteRead != 0 }
func (e pte) writable() bool { return e&pteWrite != 0 }
func (e pte) mfn() uint64    { return uint64(e) >> mem.PageShift }

// ptIndex is gfn's entry index in a table of the given level (0 = leaf).
func ptIndex(gfn uint64, level int) uint64 {
	return gfn >> (level * ptLevelBits) & (ptFanout - 1)
}

func (pt *pageTable) map4k(gfn, mfn uint64, writable bool) {
	if pt.root == nil {
		pt.root = new(ptRoot)
	}
	mid := &pt.root[ptIndex(gfn, 2)]
	if *mid == nil {
		*mid = new(ptMid)
	}
	leaves := &(*mid)[ptIndex(gfn, 1)]
	if *leaves == nil {
		*leaves = new(ptLeafTable)
	}
	(*leaves)[ptIndex(gfn, 0)] = newPTE(mfn, writable)
}

// walk returns the PTE for gfn and the number of memory accesses the walk
// took (for cost accounting); a walk that meets a missing table stops
// there with a non-present entry.
func (pt *pageTable) walk(gfn uint64) (pte, int) {
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

// iotlbEntry is one cached translation: its full (rid, gfn) key, the
// result, and its links in the LRU list (slot indices, -1 at either end).
type iotlbEntry struct {
	gfn        uint64
	mfn        uint64
	rid        uint16
	writable   bool
	prev, next int32
}

// IOTLB is a fully associative translation cache with exact LRU
// replacement and hit/miss counters. Entries live in a slot array that
// grows to capacity and is then recycled. An open-addressed index (linear
// probing over a power-of-two table kept at most half full) maps a
// multiplicative hash of (rid, gfn) to a slot, and every slot holds its
// full key, so a lookup is exact for any gfn. Each bucket also keeps the
// top half of its key's hash, which names the key's home bucket: probing
// past other keys and shifting them back on removal read only the index.
type IOTLB struct {
	capacity int
	entries  []iotlbEntry
	index    []iotlbBucket
	tagShift uint  // 32 - log2(len(index)): a tag's home bucket is tag>>tagShift
	n        int   // cached translations
	head     int32 // most recent; -1 when empty
	tail     int32 // least recent; -1 when empty
	// free recycles invalidated slots, linked through next.
	free   int32
	Hits   int64
	Misses int64
}

// NewIOTLB creates a cache holding up to capacity translations.
func NewIOTLB(capacity int) *IOTLB {
	if capacity <= 0 {
		panic("iommu: IOTLB capacity must be positive")
	}
	logSize := bits.Len(uint(2*capacity - 1))
	return &IOTLB{
		capacity: capacity,
		index:    make([]iotlbBucket, 1<<logSize),
		tagShift: uint(32 - logSize),
		head:     -1,
		tail:     -1,
		free:     -1,
	}
}

// iotlbBucket is one index bucket: the slot it points at (plus one; 0
// marks an empty bucket) and the top 32 bits of that key's hash.
type iotlbBucket struct {
	slot int32
	tag  uint32
}

// tag is the top half of a multiplicative hash of (rid, gfn).
func tag(rid uint16, gfn uint64) uint32 {
	return uint32((gfn*0x9e3779b97f4a7c15 ^ uint64(rid)*0xc2b2ae3d27d4eb4f) >> 32)
}

// home is the bucket a key with hash tag h starts probing at.
func (t *IOTLB) home(h uint32) int { return int(h >> t.tagShift) }

// find returns the bucket holding (rid, gfn) and its slot, or the empty
// bucket where it would go and slot -1.
func (t *IOTLB) find(rid uint16, gfn uint64) (int, int32) {
	h := tag(rid, gfn)
	mask := len(t.index) - 1
	for b := t.home(h); ; b = (b + 1) & mask {
		x := t.index[b]
		if x.slot == 0 {
			return b, -1
		}
		if x.tag == h {
			if e := &t.entries[x.slot-1]; e.gfn == gfn && e.rid == rid {
				return b, x.slot - 1
			}
		}
	}
}

// lookup returns the cached translation for (rid, gfn), counting the hit
// or miss and making a hit the most recently used entry.
func (t *IOTLB) lookup(rid uint16, gfn uint64) (mfn uint64, writable, hit bool) {
	_, s := t.find(rid, gfn)
	if s < 0 {
		t.Misses++
		return 0, false, false
	}
	t.Hits++
	t.touch(s)
	e := &t.entries[s]
	return e.mfn, e.writable, true
}

func (t *IOTLB) insert(rid uint16, gfn, mfn uint64, writable bool) {
	b, s := t.find(rid, gfn)
	if s >= 0 {
		e := &t.entries[s]
		e.mfn, e.writable = mfn, writable
		t.touch(s)
		return
	}
	if t.n >= t.capacity {
		t.remove(t.tail)
		// Removal shifts index entries back; find the bucket again.
		b, _ = t.find(rid, gfn)
	}
	if t.free >= 0 {
		s = t.free
		t.free = t.entries[s].next
	} else {
		s = int32(len(t.entries))
		t.entries = append(t.entries, iotlbEntry{})
	}
	t.entries[s] = iotlbEntry{gfn: gfn, mfn: mfn, rid: rid, writable: writable}
	t.index[b] = iotlbBucket{slot: s + 1, tag: tag(rid, gfn)}
	t.n++
	t.pushFront(s)
}

// remove drops slot s from the LRU list and the index and recycles it.
func (t *IOTLB) remove(s int32) {
	t.unlink(s)
	t.unindex(s)
	t.entries[s].next = t.free
	t.free = s
	t.n--
}

// unindex deletes slot s from the index by backward shift: every entry
// after the hole in the same probe run moves back unless its home bucket
// lies cyclically after the hole, so probing never needs tombstones.
func (t *IOTLB) unindex(s int32) {
	mask := len(t.index) - 1
	e := &t.entries[s]
	hole := t.home(tag(e.rid, e.gfn))
	for t.index[hole].slot != s+1 {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.index[j].slot != 0; j = (j + 1) & mask {
		home := t.home(t.index[j].tag)
		if hole <= j {
			if hole < home && home <= j {
				continue
			}
		} else if hole < home || home <= j {
			continue
		}
		t.index[hole] = t.index[j]
		hole = j
	}
	t.index[hole] = iotlbBucket{}
}

func (t *IOTLB) touch(s int32) {
	if t.head == s {
		return
	}
	t.unlink(s)
	t.pushFront(s)
}

func (t *IOTLB) pushFront(s int32) {
	e := &t.entries[s]
	e.prev = -1
	e.next = t.head
	if t.head >= 0 {
		t.entries[t.head].prev = s
	}
	t.head = s
	if t.tail < 0 {
		t.tail = s
	}
}

func (t *IOTLB) unlink(s int32) {
	e := &t.entries[s]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

// InvalidateRID drops all cached translations for a requester, walking the
// LRU list.
func (t *IOTLB) InvalidateRID(rid uint16) {
	for s := t.head; s >= 0; {
		next := t.entries[s].next
		if t.entries[s].rid == rid {
			t.remove(s)
		}
		s = next
	}
}

// contextEntry is one requester's VT-d context entry: present while the
// RID is attached, naming its domain and that domain's page table.
type contextEntry struct {
	present  bool
	domainID int
	pt       *pageTable
}

// contextTable is one bus's VT-d context table, indexed by devfn (the low
// byte of the RID).
type contextTable [256]contextEntry

// domainTable is one remapping domain's page table and the number of
// context entries pointing at it; the domain's table is dropped with its
// last context, as the contexts themselves were its only owners.
type domainTable struct {
	pt   *pageTable
	refs int
}

// IOMMU is the remapping engine.
type IOMMU struct {
	// root is the VT-d root table, indexed by bus (the high byte of the
	// RID); a bus's context table is allocated on its first attach.
	root [256]*contextTable
	// domains finds a domain's shared page table at attach time; the DMA
	// path never reads it.
	domains map[int]*domainTable
	tlb     *IOTLB
	// irte is the interrupt-remapping table, indexed by vector (vectors
	// are globally unique in this system, §4.1).
	irte [256]IRTE
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
		domains:        make(map[int]*domainTable),
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

// context returns the RID's context entry, or nil when it has none.
func (u *IOMMU) context(rid uint16) *contextEntry {
	t := u.root[rid>>8]
	if t == nil {
		return nil
	}
	if c := &t[rid&0xff]; c.present {
		return c
	}
	return nil
}

// AttachDomain binds a requester ID to a remapping domain. Subsequent Map
// calls for the RID populate that domain's page table. Two RIDs attached to
// the same domainID share a page table, as two queues of one VF would.
func (u *IOMMU) AttachDomain(rid uint16, domainID int) {
	d := u.domains[domainID]
	if d == nil {
		d = &domainTable{pt: &pageTable{}}
		u.domains[domainID] = d
	}
	d.refs++
	u.release(rid)
	t := u.root[rid>>8]
	if t == nil {
		t = new(contextTable)
		u.root[rid>>8] = t
	}
	t[rid&0xff] = contextEntry{present: true, domainID: domainID, pt: d.pt}
}

// release clears the RID's context entry, dropping its domain's page table
// with the domain's last context.
func (u *IOMMU) release(rid uint16) {
	c := u.context(rid)
	if c == nil {
		return
	}
	d := u.domains[c.domainID]
	d.refs--
	if d.refs == 0 {
		delete(u.domains, c.domainID)
	}
	*c = contextEntry{}
}

// DetachRID removes a requester's context and flushes its IOTLB entries —
// what device hot-removal (DNIS) does before migration.
func (u *IOMMU) DetachRID(rid uint16) {
	u.release(rid)
	u.tlb.InvalidateRID(rid)
}

// Attached reports whether the RID has a context.
func (u *IOMMU) Attached(rid uint16) bool { return u.context(rid) != nil }

// DomainOf reports the domain a RID is attached to.
func (u *IOMMU) DomainOf(rid uint16) (int, bool) {
	c := u.context(rid)
	if c == nil {
		return 0, false
	}
	return c.domainID, true
}

// Map installs a 4 KiB translation gfn→mfn for the RID's domain.
func (u *IOMMU) Map(rid uint16, gfn, mfn uint64, writable bool) error {
	c := u.context(rid)
	if c == nil {
		return fmt.Errorf("iommu: rid %#04x has no context", rid)
	}
	if mfn >= 1<<(64-mem.PageShift) {
		return fmt.Errorf("iommu: mfn %#x does not fit a page-table entry", mfn)
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
	c := u.context(rid)
	if c == nil {
		return 0, u.fault(rid, addr, write, "no context for requester")
	}
	gfn := addr >> mem.PageShift
	off := addr & (uint64(mem.PageSize) - 1)
	if mfn, writable, hit := u.tlb.lookup(rid, gfn); hit {
		if write && !writable {
			return 0, u.fault(rid, addr, write, "write to read-only mapping")
		}
		return mfn<<mem.PageShift | off, nil
	}
	e, hops := c.pt.walk(gfn)
	u.walks.Add(int64(hops))
	if !e.present() {
		return 0, u.fault(rid, addr, write, "not mapped")
	}
	if write && !e.writable() {
		return 0, u.fault(rid, addr, write, "write to read-only mapping")
	}
	u.tlb.insert(rid, gfn, e.mfn(), e.writable())
	return e.mfn()<<mem.PageShift | off, nil
}

func (u *IOMMU) fault(rid uint16, addr uint64, write bool, reason string) error {
	f := Fault{RID: rid, Addr: addr, Write: write, Reason: reason}
	u.Faults = append(u.Faults, f)
	u.faults.Inc()
	return &f
}
