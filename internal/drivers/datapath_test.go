package drivers

import (
	"testing"

	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/vmm"
)

// checkConserved asserts the backend conservation identity with a drained
// pipeline.
func checkConserved(t *testing.T, dp Datapath) {
	t.Helper()
	s := dp.Stats()
	if s.Received != s.Delivered+s.Dropped+s.InFlight {
		t.Fatalf("%s conservation: received=%d delivered=%d dropped=%d inflight=%d",
			dp.Kind(), s.Received, s.Delivered, s.Dropped, s.InFlight)
	}
	if s.InFlight != 0 {
		t.Fatalf("%s: %d packets in flight after settle", dp.Kind(), s.InFlight)
	}
}

func TestDatapathContracts(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	nb := NewNetback(r.hv, 2)
	br := NewVMDqBridge(r.hv, 2)
	vh := NewVhost(r.hv)
	sw := NewOVSSwitch(r.hv)
	sp := NewSoftPassthrough(r.hv)
	cases := []struct {
		dp   Datapath
		kind string
	}{
		{nb, "pv"},
		{br, "vmdq"},
		{vh, "vhost"},
		{sw, "ovs"},
		{sp, "swpass"},
	}
	for _, c := range cases {
		if c.dp.Kind() != c.kind {
			t.Errorf("Kind() = %q, want %q", c.dp.Kind(), c.kind)
		}
	}
}

func TestVhostPollDeliversWithoutInterrupts(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.hv.Obs = obs.NewRegistry()
	vh := NewVhost(r.hv)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	if err := vh.AddVif(d, nic.MAC(0xaa), recv); err != nil {
		t.Fatal(err)
	}
	// 20 batches of 30 packets, one every 100 µs.
	for i := 0; i < 20; i++ {
		r.eng.After(units.Duration(i)*100*units.Microsecond, "tx", func() {
			vh.Inject(nic.Batch{Dst: nic.MAC(0xaa), Count: 30, Bytes: 30 * 1514})
		})
	}
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	if got := recv.Stats.AppPackets; got != 600 {
		t.Fatalf("guest received %d packets, want 600", got)
	}
	if recv.Stats.Interrupts != 0 {
		t.Fatalf("poll-mode delivery fired %d interrupts, want 0", recv.Stats.Interrupts)
	}
	if recv.Stats.SockDropped != 0 {
		t.Fatalf("rx-burst chunking overflowed the socket: %d drops", recv.Stats.SockDropped)
	}
	checkConserved(t, vh)
	if g := r.hv.Obs.Gauge("dp.vhost.poll_idle_frac").Value(); g <= 0 || g >= 1 {
		t.Fatalf("poll_idle_frac = %v, want in (0, 1) for a partly idle run", g)
	}
}

func TestVhostRingOverflowDrops(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	vh := NewVhost(r.hv)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	if err := vh.AddVif(d, nic.MAC(0xaa), recv); err != nil {
		t.Fatal(err)
	}
	vh.Inject(nic.Batch{Dst: nic.MAC(0xaa), Count: 2000, Bytes: 2000 * 64})
	want := int64(2000 - model.VhostRingCap)
	if vh.Dropped != want {
		t.Fatalf("ring overflow dropped %d, want %d", vh.Dropped, want)
	}
	r.eng.RunUntil(units.Time(20 * units.Millisecond))
	checkConserved(t, vh)
	if vh.Delivered != int64(model.VhostRingCap) {
		t.Fatalf("delivered %d, want %d", vh.Delivered, model.VhostRingCap)
	}
}

func TestVhostUnknownMACDrops(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	vh := NewVhost(r.hv)
	vh.Inject(nic.Batch{Dst: nic.MAC(0xdead), Count: 10, Bytes: 10 * 64})
	if vh.Dropped != 10 || vh.Received != 10 {
		t.Fatalf("unknown MAC: received=%d dropped=%d, want 10/10", vh.Received, vh.Dropped)
	}
	checkConserved(t, vh)
}

func TestOVSHitMissSplit(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.hv.Obs = obs.NewRegistry()
	sw := NewOVSSwitch(r.hv)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	if err := sw.AddVif(d, nic.MAC(0xaa), recv); err != nil {
		t.Fatal(err)
	}
	b := nic.Batch{Src: nic.MAC(0xbb), Dst: nic.MAC(0xaa), Count: 10, Bytes: 10 * 1514}
	// First batch: cold cache → upcall. Second, well after the install
	// completes: kernel fast path.
	sw.Inject(b)
	r.eng.After(2*units.Millisecond, "tx", func() { sw.Inject(b) })
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	if got := r.hv.Obs.Counter("dp.ovs.cache_hits").Value(); got != 1 {
		t.Fatalf("dp.ovs.cache_hits = %d, want 1", got)
	}
	if got := r.hv.Obs.Counter("dp.ovs.cache_misses").Value(); got != 1 {
		t.Fatalf("dp.ovs.cache_misses = %d, want 1", got)
	}
	if recv.Stats.AppPackets != 20 {
		t.Fatalf("guest received %d packets, want 20", recv.Stats.AppPackets)
	}
	if recv.Stats.Interrupts != 2 {
		t.Fatalf("interrupt-mode delivery fired %d interrupts, want 2", recv.Stats.Interrupts)
	}
	checkConserved(t, sw)
}

func TestOVSUnknownMACDrops(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	sw := NewOVSSwitch(r.hv)
	sw.Inject(nic.Batch{Dst: nic.MAC(0xdead), Count: 7, Bytes: 7 * 64})
	if sw.Dropped != 7 {
		t.Fatalf("unknown MAC dropped %d, want 7", sw.Dropped)
	}
	checkConserved(t, sw)
}

func TestSwPassCoalescedInterrupt(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	sp := NewSoftPassthrough(r.hv)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	if err := sp.AddVif(d, nic.MAC(0xaa), recv); err != nil {
		t.Fatal(err)
	}
	// Three batches inside one coalescing window → one interrupt.
	for i := 0; i < 3; i++ {
		r.eng.After(units.Duration(i)*50*units.Microsecond, "tx", func() {
			sp.Inject(nic.Batch{Dst: nic.MAC(0xaa), Count: 10, Bytes: 10 * 1514})
		})
	}
	r.eng.RunUntil(units.Time(5 * units.Millisecond))
	if recv.Stats.Interrupts != 1 {
		t.Fatalf("coalescing fired %d interrupts, want 1", recv.Stats.Interrupts)
	}
	if recv.Stats.AppPackets != 30 {
		t.Fatalf("guest received %d packets, want 30", recv.Stats.AppPackets)
	}
	checkConserved(t, sp)
}

func TestFlowCacheLRUAndExpiry(t *testing.T) {
	fc := NewFlowCache(2, 10*units.Microsecond)
	k := func(i uint64) FlowKey { return FlowKey{Dst: nic.MAC(i)} }
	us := func(n int64) units.Time { return units.Time(n * int64(units.Microsecond)) }

	fc.Insert(k(1), 0)
	fc.Insert(k(2), 0)
	if !fc.Lookup(k(1), us(5)) {
		t.Fatal("fresh flow should hit")
	}
	// k(1) is now most recent; inserting k(3) evicts k(2).
	fc.Insert(k(3), us(5))
	if fc.lru.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (capacity)", fc.lru.Len())
	}
	if fc.Lookup(k(2), us(5)) {
		t.Fatal("LRU flow should have been evicted")
	}
	// The k(1) hit at t=5µs reset its idle clock: alive at 14µs, dead past
	// 15µs.
	if !fc.Lookup(k(1), us(14)) {
		t.Fatal("flow idle 9 µs should survive a 10 µs timeout")
	}
	if fc.Lookup(k(1), us(25)) {
		t.Fatal("flow idle 11 µs should have expired")
	}
	if fc.lru.Len() != 1 {
		t.Fatalf("Len = %d after expiry, want 1", fc.lru.Len())
	}
}
