package interrupts

import (
	"testing"
	"testing/quick"
)

func TestMSIMessageRoundTrip(t *testing.T) {
	m := NewMSIMessage(0x41)
	if m.Vector() != 0x41 {
		t.Fatalf("vector = %#x", m.Vector())
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
	if !l.isr[0x40] || l.irr[0x40] {
		t.Fatal("ack should move IRR→ISR")
	}
	if _, ok := l.EOI(); ok {
		t.Fatal("no next interrupt expected")
	}
	if l.isr[0x40] {
		t.Fatal("EOI should clear ISR")
	}
	if l.EOICount != 1 {
		t.Fatal("EOI count")
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
	l.EOI()
	if l.SpuriousEOI != 1 {
		t.Fatal("spurious EOI not counted")
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
	if e.Sent != 1 {
		t.Fatal("sent count")
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
