package iommu

import (
	"container/list"
	"testing"

	"repro/internal/mem"
)

// refKey and refVal are the reference IOTLB's key and cached translation.
type refKey struct {
	rid uint16
	gfn uint64
}

type refVal struct {
	key      refKey
	mfn      uint64
	writable bool
}

// refTLB is the map-plus-list LRU the slot-array IOTLB replaced: a Go map
// from (rid, gfn) to a container/list element, front = most recent. It is
// the differential oracle for FuzzIOTLB.
type refTLB struct {
	capacity     int
	byKey        map[refKey]*list.Element
	lru          *list.List
	hits, misses int64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, byKey: make(map[refKey]*list.Element), lru: list.New()}
}

func (r *refTLB) lookup(rid uint16, gfn uint64) (uint64, bool, bool) {
	el, ok := r.byKey[refKey{rid, gfn}]
	if !ok {
		r.misses++
		return 0, false, false
	}
	r.hits++
	r.lru.MoveToFront(el)
	v := el.Value.(refVal)
	return v.mfn, v.writable, true
}

func (r *refTLB) insert(rid uint16, gfn, mfn uint64, writable bool) {
	k := refKey{rid, gfn}
	if el, ok := r.byKey[k]; ok {
		el.Value = refVal{k, mfn, writable}
		r.lru.MoveToFront(el)
		return
	}
	if r.lru.Len() >= r.capacity {
		victim := r.lru.Back()
		r.lru.Remove(victim)
		delete(r.byKey, victim.Value.(refVal).key)
	}
	r.byKey[k] = r.lru.PushFront(refVal{k, mfn, writable})
}

func (r *refTLB) invalidateRID(rid uint16) {
	for el := r.lru.Front(); el != nil; {
		next := el.Next()
		if v := el.Value.(refVal); v.key.rid == rid {
			r.lru.Remove(el)
			delete(r.byKey, v.key)
		}
		el = next
	}
}

// fuzzRIDs are the requesters FuzzIOTLB drives: two share domain 1's page
// table, as two queues of one VF would, and 0x0400 is never attached.
var fuzzRIDs = [...]uint16{0x0100, 0x0101, 0x0208, 0x0400}

func fuzzDomain(rid uint16) int {
	switch rid {
	case 0x0100, 0x0101:
		return 1
	case 0x0208:
		return 2
	}
	return 0
}

// fuzzMapped is the page-table contents FuzzIOTLB installs for gfns 0-31:
// every gfn not divisible by 3 is mapped, writable unless divisible by 5,
// to a domain-specific frame. The 3-level table decodes only a gfn's low
// 27 bits, so a higher gfn walks to the entry of its low bits.
func fuzzMapped(domain int, gfn uint64) (mfn uint64, writable, present bool) {
	gfn &= 1<<(ptLevels*ptLevelBits) - 1
	if domain == 0 || gfn%3 == 0 {
		return 0, false, false
	}
	return gfn*7 + uint64(domain)<<40, gfn%5 != 0, true
}

// fuzzGFN spreads a byte over small frame numbers and far-apart high ones,
// so IOTLB keys differ only above bit 45 and walk to the same leaves.
func fuzzGFN(b byte) uint64 { return uint64(b&31) | uint64(b>>5)<<45 }

// checkIOTLB compares the IOTLB with the reference: counters, size, and
// the whole LRU order (which fixes every future eviction victim), then
// checks that the index finds each live slot.
func checkIOTLB(t *testing.T, op int, got *IOTLB, want *refTLB) {
	t.Helper()
	if got.Hits != want.hits || got.Misses != want.misses || got.n != want.lru.Len() {
		t.Fatalf("op %d: hits/misses/len %d/%d/%d, reference %d/%d/%d",
			op, got.Hits, got.Misses, got.n, want.hits, want.misses, want.lru.Len())
	}
	el := want.lru.Front()
	for s := got.head; s >= 0; s = got.entries[s].next {
		e := got.entries[s]
		v := el.Value.(refVal)
		if e.rid != v.key.rid || e.gfn != v.key.gfn || e.mfn != v.mfn || e.writable != v.writable {
			t.Fatalf("op %d: LRU entry (%#x, %#x)→%#x, reference (%#x, %#x)→%#x",
				op, e.rid, e.gfn, e.mfn, v.key.rid, v.key.gfn, v.mfn)
		}
		if _, found := got.find(e.rid, e.gfn); found != s {
			t.Fatalf("op %d: index finds (%#x, %#x) at slot %d, want %d", op, e.rid, e.gfn, found, s)
		}
		el = el.Next()
	}
	if el != nil {
		t.Fatalf("op %d: reference LRU is longer than the IOTLB's", op)
	}
	used := 0
	for _, x := range got.index {
		if x.slot != 0 {
			used++
			if e := got.entries[x.slot-1]; x.tag != tag(e.rid, e.gfn) {
				t.Fatalf("op %d: bucket tag %#x, key (%#x, %#x) hashes to %#x", op, x.tag, e.rid, e.gfn, tag(e.rid, e.gfn))
			}
		}
	}
	if used != got.n {
		t.Fatalf("op %d: %d index buckets in use for %d entries", op, used, got.n)
	}
}

// FuzzIOTLB drives random insert, lookup, TranslateDMA and InvalidateRID
// sequences through the IOMMU and, in lockstep, through the reference
// map-plus-list LRU and page-table contents. Hits, misses, returned frames,
// faults and the LRU order after every operation must agree.
func FuzzIOTLB(f *testing.F) {
	f.Add(uint8(2), []byte{0, 0, 1, 9, 0, 0, 2, 9, 0, 0, 3, 9, 1, 0, 1, 0, 1, 0, 3, 0})
	f.Add(uint8(4), []byte{2, 0, 1, 0, 2, 1, 1, 1, 2, 2, 4, 0, 3, 0, 0, 0, 2, 0, 1, 0, 2, 3, 2, 1})
	f.Add(uint8(1), []byte{0, 1, 33, 5, 0, 1, 65, 6, 1, 1, 33, 0, 1, 1, 65, 0, 3, 1, 0, 0})
	f.Add(uint8(7), []byte{2, 0, 7, 1, 2, 1, 7, 1, 2, 2, 7, 1, 2, 3, 7, 1, 2, 0, 0, 1, 2, 0, 15, 1})
	f.Fuzz(func(t *testing.T, capSeed uint8, ops []byte) {
		capacity := int(capSeed%16) + 1
		u := New(capacity)
		for _, rid := range fuzzRIDs {
			d := fuzzDomain(rid)
			if d == 0 {
				continue
			}
			u.AttachDomain(rid, d)
			for gfn := uint64(0); gfn < 32; gfn++ {
				if mfn, w, ok := fuzzMapped(d, gfn); ok {
					u.Map(rid, gfn, mfn, w)
				}
			}
		}
		ref := newRefTLB(capacity)
		var refDMA, refWalks int64
		for i := 0; i+3 < len(ops); i += 4 {
			rid := fuzzRIDs[ops[i+1]%byte(len(fuzzRIDs))]
			gfn := fuzzGFN(ops[i+2])
			arg := ops[i+3]
			switch ops[i] % 4 {
			case 0:
				u.tlb.insert(rid, gfn, uint64(arg)<<12|gfn, arg&1 == 0)
				ref.insert(rid, gfn, uint64(arg)<<12|gfn, arg&1 == 0)
			case 1:
				mfn, w, hit := u.tlb.lookup(rid, gfn)
				rmfn, rw, rhit := ref.lookup(rid, gfn)
				if mfn != rmfn || w != rw || hit != rhit {
					t.Fatalf("op %d: lookup(%#x, %#x) = %#x/%v/%v, reference %#x/%v/%v",
						i, rid, gfn, mfn, w, hit, rmfn, rw, rhit)
				}
			case 2:
				write := arg&1 != 0
				addr := gfn<<mem.PageShift | uint64(arg)<<4
				got, err := u.TranslateDMA(rid, addr, write)
				want, ok := refTranslate(ref, rid, gfn, write, &refDMA, &refWalks)
				if (err == nil) != ok || (ok && got != want<<mem.PageShift|addr&(uint64(mem.PageSize)-1)) {
					t.Fatalf("op %d: TranslateDMA(%#x, %#x, %v) = %#x, %v; reference frame %#x, ok %v",
						i, rid, addr, write, got, err, want, ok)
				}
				if u.dma.Value() != refDMA || u.walks.Value() != refWalks {
					t.Fatalf("op %d: dma/walks %d/%d, reference %d/%d",
						i, u.dma.Value(), u.walks.Value(), refDMA, refWalks)
				}
			case 3:
				u.tlb.InvalidateRID(rid)
				ref.invalidateRID(rid)
			}
			checkIOTLB(t, i, u.tlb, ref)
		}
	})
}

// refTranslate is the reference TranslateDMA over refTLB and fuzzMapped:
// an unattached requester faults before the IOTLB; a hit returns the
// cached frame unless a write meets a read-only entry; a miss walks all 3
// levels (every gfn falls in the one populated 2 MiB region), faults on an
// unmapped or read-only page, and caches the translation.
func refTranslate(r *refTLB, rid uint16, gfn uint64, write bool, dma, walks *int64) (uint64, bool) {
	*dma++
	d := fuzzDomain(rid)
	if d == 0 {
		return 0, false
	}
	if mfn, w, hit := r.lookup(rid, gfn); hit {
		return mfn, !write || w
	}
	*walks += ptLevels
	mfn, w, present := fuzzMapped(d, gfn)
	if !present || (write && !w) {
		return 0, false
	}
	r.insert(rid, gfn, mfn, w)
	return mfn, true
}
