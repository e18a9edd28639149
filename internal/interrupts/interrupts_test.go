package interrupts

import (
	"testing"
	"testing/quick"
)

func TestMSIMessageRoundTrip(t *testing.T) {
	m := NewMSIMessage(0x41)
	if v := Vector(m.Data & 0xff); v != 0x41 {
		t.Fatalf("vector = %#x", v)
	}
	if m.Addr != MSIAddressBase {
		t.Fatalf("addr = %#x", m.Addr)
	}
}

func TestAllocatorUniqueVectors(t *testing.T) {
	a := NewAllocator()
	seen := make(map[Vector]bool)
	for i := 0; i < 100; i++ {
		v, err := a.Alloc("owner")
		if err != nil {
			t.Fatal(err)
		}
		if v < FirstUsableVector {
			t.Fatalf("vector %d below first usable", v)
		}
		if seen[v] {
			t.Fatalf("vector %d allocated twice", v)
		}
		seen[v] = true
	}
	if len(a.owner) != 100 {
		t.Fatalf("allocated = %d", len(a.owner))
	}
}

func TestAllocatorOwnership(t *testing.T) {
	a := NewAllocator()
	v, _ := a.Alloc("guest-3:vf0")
	o, ok := a.owner[v]
	if !ok || o != "guest-3:vf0" {
		t.Fatalf("owner = %q, %v", o, ok)
	}
	a.Free(v)
	if _, ok := a.owner[v]; ok {
		t.Fatal("freed vector still owned")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < 224; i++ { // 32..255
		if _, err := a.Alloc("x"); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := a.Alloc("x"); err == nil {
		t.Fatal("allocator should exhaust after 224 vectors")
	}
}

func TestLAPICBasicFlow(t *testing.T) {
	var l LAPIC
	if !l.Inject(0x40) {
		t.Fatal("first inject should pend")
	}
	if l.Inject(0x40) {
		t.Fatal("second inject of same vector should merge")
	}
	v, ok := l.Ack()
	if !ok || v != 0x40 {
		t.Fatalf("ack = %#x, %v", v, ok)
	}
	// Ack moved 0x40 from IRR to ISR: nothing is left pending, and a
	// re-injected 0x40 is newly pended but waits behind its own class.
	if _, ok := l.Pending(); ok {
		t.Fatal("ack should clear the IRR")
	}
	if !l.Inject(0x40) {
		t.Fatal("re-inject after ack should pend anew")
	}
	if _, ok := l.Pending(); ok {
		t.Fatal("in-service 0x40 should block its own class")
	}
	// The EOI finds 0x40 in service (not spurious), clears it, and offers
	// the re-injected 0x40 next.
	next, ok := l.EOI()
	if !ok || next != 0x40 {
		t.Fatalf("EOI next = %#x, %v; want 0x40 from a set ISR", next, ok)
	}
	l.Ack()
	if _, ok := l.EOI(); ok {
		t.Fatal("no next interrupt expected")
	}
	// The EOI cleared the ISR, so a further EOI is spurious: a no-op.
	if l.isr.highest() >= 0 {
		t.Fatal("EOI should have cleared the ISR")
	}
	if _, ok := l.EOI(); ok || l != (LAPIC{}) {
		t.Fatal("spurious EOI changed the LAPIC")
	}
}

func TestLAPICPriority(t *testing.T) {
	var l LAPIC
	l.Inject(0x40)
	l.Inject(0x80)
	v, _ := l.Ack()
	if v != 0x80 {
		t.Fatalf("highest priority first: got %#x", v)
	}
	// Lower-priority 0x40 is not deliverable while 0x80 is in service.
	if _, ok := l.Pending(); ok {
		t.Fatal("lower vector should be blocked by in-service higher vector")
	}
	// Higher vector preempts.
	l.Inject(0x90)
	v, ok := l.Ack()
	if !ok || v != 0x90 {
		t.Fatalf("preempting vector: got %#x, %v", v, ok)
	}
	// EOI clears 0x90; 0x80 still in service, 0x40 still blocked.
	if next, ok := l.EOI(); ok {
		t.Fatalf("unexpected next %#x", next)
	}
	// EOI clears 0x80; now 0x40 becomes deliverable.
	next, ok := l.EOI()
	if !ok || next != 0x40 {
		t.Fatalf("next after second EOI = %#x, %v", next, ok)
	}
}

func TestLAPICSpuriousEOI(t *testing.T) {
	var l LAPIC
	if _, ok := l.EOI(); ok || l != (LAPIC{}) {
		t.Fatal("spurious EOI should change nothing")
	}
}

func TestLAPICInjectAckEOIProperty(t *testing.T) {
	// Any sequence of injects followed by ack/EOI pairs drains completely,
	// in descending priority order per service chain.
	prop := func(raw []uint8) bool {
		var l LAPIC
		want := make(map[Vector]bool)
		for _, r := range raw {
			v := Vector(r%200 + 32)
			l.Inject(v)
			want[v] = true
		}
		seen := make(map[Vector]bool)
		for i := 0; i < 300; i++ {
			v, ok := l.Ack()
			if !ok {
				break
			}
			if seen[v] {
				return false // delivered twice
			}
			seen[v] = true
			l.EOI()
		}
		if len(seen) != len(want) {
			return false
		}
		for v := range want {
			if !seen[v] {
				return false
			}
		}
		_, pending := l.Pending()
		return !pending
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEventChannels(t *testing.T) {
	e := NewEventChannels(4)
	p, err := e.Bind("vif1")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Notify(p) {
		t.Fatal("first notify should deliver")
	}
	if e.Notify(p) {
		t.Fatal("second notify should merge")
	}
	if !e.pending[p] {
		t.Fatal("port should be pending")
	}
	if !e.Consume(p) {
		t.Fatal("consume should report pending")
	}
	if e.Consume(p) {
		t.Fatal("second consume should report clear")
	}
}

func TestEventChannelUnbind(t *testing.T) {
	e := NewEventChannels(2)
	p, _ := e.Bind("a")
	e.Notify(p)
	e.Unbind(p)
	if e.Notify(p) {
		t.Fatal("unbound port should not deliver")
	}
	// Port is reusable.
	p2, err := e.Bind("b")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatalf("expected port reuse, got %d", p2)
	}
}

func TestEventChannelExhaustion(t *testing.T) {
	e := NewEventChannels(1)
	e.Bind("a")
	if _, err := e.Bind("b"); err == nil {
		t.Fatal("should exhaust")
	}
}

// TestAllocatorReusesFreedVectorsPastWrap is the regression test for the
// wrap bug: the allocator used to fail permanently once the rotor passed
// 255, even with freed vectors available. Alloc must skip live vectors,
// reuse freed ones, and only fail when all 224 usable vectors are owned.
func TestAllocatorReusesFreedVectorsPastWrap(t *testing.T) {
	a := NewAllocator()
	const usable = 256 - int(FirstUsableVector)

	// Fill the whole space, then free one vector in the middle and
	// allocate again — repeatedly, so the rotor wraps past 255 many times.
	vecs := make([]Vector, 0, usable)
	for i := 0; i < usable; i++ {
		v, err := a.Alloc("initial")
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		vecs = append(vecs, v)
	}
	if _, err := a.Alloc("overflow"); err == nil {
		t.Fatal("full allocator should fail")
	}
	for round := 0; round < 3*usable; round++ {
		freed := vecs[round%usable]
		a.Free(freed)
		v, err := a.Alloc("recycled")
		if err != nil {
			t.Fatalf("round %d: alloc after free failed: %v", round, err)
		}
		if v != freed {
			t.Fatalf("round %d: got %d, want the only free vector %d", round, v, freed)
		}
		if owner := a.owner[v]; owner != "recycled" {
			t.Fatalf("round %d: owner = %q", round, owner)
		}
	}
	if len(a.owner) != usable {
		t.Fatalf("allocated = %d, want %d", len(a.owner), usable)
	}
}

// TestAllocatorNeverHandsOutLiveVector: with a partially freed space the
// allocator must skip still-owned vectors instead of double-allocating.
func TestAllocatorNeverHandsOutLiveVector(t *testing.T) {
	a := NewAllocator()
	const usable = 256 - int(FirstUsableVector)
	for i := 0; i < usable; i++ {
		if _, err := a.Alloc("x"); err != nil {
			t.Fatal(err)
		}
	}
	// Free every fourth vector; reallocate exactly that many.
	var freed []Vector
	for v := int(FirstUsableVector); v < 256; v += 4 {
		a.Free(Vector(v))
		freed = append(freed, Vector(v))
	}
	got := make(map[Vector]bool)
	for range freed {
		v, err := a.Alloc("y")
		if err != nil {
			t.Fatal(err)
		}
		if got[v] {
			t.Fatalf("vector %d handed out twice", v)
		}
		got[v] = true
	}
	for _, v := range freed {
		if !got[v] {
			t.Fatalf("freed vector %d never reused", v)
		}
	}
	if _, err := a.Alloc("z"); err == nil {
		t.Fatal("full again: should fail")
	}
}

// TestLAPICPriorityClasses is the regression test for the raw-vector
// comparison bug: x86 APIC priority is the 16-vector class (vector >> 4).
// A pending vector in the same class as the in-service one must wait; a
// higher-class vector preempts regardless of its position within the class.
func TestLAPICPriorityClasses(t *testing.T) {
	cases := []struct {
		name        string
		inService   Vector
		pending     Vector
		deliverable bool
	}{
		{"higher class preempts", 0x40, 0x80, true},
		{"low position of higher class still preempts", 0x4f, 0x50, true},
		{"same class, higher vector waits", 0x42, 0x4f, false},
		{"same class, lower vector waits", 0x4f, 0x42, false},
		{"lower class waits", 0x80, 0x40, false},
		{"adjacent classes, one apart", 0x5f, 0x60, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := &LAPIC{}
			l.Inject(tc.inService)
			if v, ok := l.Ack(); !ok || v != tc.inService {
				t.Fatalf("ack = %d, %v", v, ok)
			}
			l.Inject(tc.pending)
			v, ok := l.Pending()
			if ok != tc.deliverable {
				t.Fatalf("Pending() deliverable = %v, want %v", ok, tc.deliverable)
			}
			if ok && v != tc.pending {
				t.Fatalf("Pending() = %d, want %d", v, tc.pending)
			}
			// After EOI of the in-service vector the pending one must
			// always become deliverable.
			if next, ok := l.EOI(); !ok || next != tc.pending {
				t.Fatalf("after EOI: next = %d, %v", next, ok)
			}
		})
	}
}

// refLAPIC is the flag-array LAPIC the bitmap registers replace: IRR and
// ISR as [256]bool, the highest vector found by scanning from the top.
type refLAPIC struct {
	irr, isr [256]bool
}

func refHighest(set *[256]bool) int {
	for v := 255; v >= 0; v-- {
		if set[v] {
			return v
		}
	}
	return -1
}

func (l *refLAPIC) inject(v Vector) bool {
	if l.irr[v] {
		return false
	}
	l.irr[v] = true
	return true
}

func (l *refLAPIC) pending() (Vector, bool) {
	hp := refHighest(&l.irr)
	if hp < 0 {
		return 0, false
	}
	if hs := refHighest(&l.isr); hs >= 0 && hs>>4 >= hp>>4 {
		return 0, false
	}
	return Vector(hp), true
}

func (l *refLAPIC) ack() (Vector, bool) {
	v, ok := l.pending()
	if ok {
		l.irr[v], l.isr[v] = false, true
	}
	return v, ok
}

func (l *refLAPIC) eoi() (Vector, bool) {
	hs := refHighest(&l.isr)
	if hs < 0 {
		return 0, false
	}
	l.isr[hs] = false
	return l.pending()
}

// TestLAPICMatchesFlagArrayReference drives random Inject/Ack/EOI/Pending
// sequences through the 256-bit-register LAPIC and the [256]bool reference
// and requires every return value and register bit to agree. Vectors span all
// 256, so every word boundary of the registers is crossed.
func TestLAPICMatchesFlagArrayReference(t *testing.T) {
	prop := func(ops []uint16) bool {
		var got LAPIC
		var want refLAPIC
		for i, op := range ops {
			v := Vector(op)
			var gv, wv Vector
			var gok, wok bool
			switch (op >> 8) % 4 {
			case 0:
				gok, wok = got.Inject(v), want.inject(v)
			case 1:
				gv, gok = got.Ack()
				wv, wok = want.ack()
			case 2:
				gv, gok = got.EOI()
				wv, wok = want.eoi()
			case 3:
				gv, gok = got.Pending()
				wv, wok = want.pending()
			}
			if gv != wv || gok != wok {
				t.Logf("op %d (%#04x): got %#x/%v, reference %#x/%v", i, op, gv, gok, wv, wok)
				return false
			}
			for r := 0; r < 256; r++ {
				if got.irr.has(Vector(r)) != want.irr[r] || got.isr.has(Vector(r)) != want.isr[r] {
					t.Logf("op %d: vector %#x registers differ from the reference", i, r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLAPICAllocationFree pins the virtual-LAPIC operations every
// delivered interrupt runs at zero allocations.
func TestLAPICAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var l LAPIC
	allocs := testing.AllocsPerRun(100, func() {
		l.Inject(0x41)
		l.Inject(0xb3)
		l.Pending()
		l.Ack()
		l.Ack()
		l.EOI()
		l.EOI()
	})
	if allocs != 0 {
		t.Fatalf("allocs per Inject/Pending/Ack/EOI round = %.0f, want 0", allocs)
	}
}

// BenchmarkLAPICPending measures the deliverability check with one vector
// in service and one pending in a higher word of the register.
func BenchmarkLAPICPending(b *testing.B) {
	var l LAPIC
	l.Inject(0x41)
	l.Ack()
	l.Inject(0xb3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Pending()
	}
}
