package drivers

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// assertAllocFree warms cycle, then requires it to run at 0 allocs/op and
// to keep delivering packets to recv.
func assertAllocFree(t *testing.T, name string, recv *guest.NetReceiver, cycle func()) {
	t.Helper()
	for i := 0; i < 64; i++ {
		cycle()
	}
	before := recv.Stats.AppPackets
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("%s: steady-state dom0 cycle allocates %.1f allocs/op, want 0", name, avg)
	}
	if recv.Stats.AppPackets == before {
		t.Fatalf("%s: cycle delivered nothing", name)
	}
}

// TestNetbackAllocationFree pins the dom0 copy path at 0 allocs/op once
// warm: a wire batch through FromNIC → poll → serve → copy-thread
// completion → frontend kick, and an inter-VM LocalTransfer, reuse their
// poll callback, pooled copy record, worker ring slot and engine event.
func TestNetbackAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector's shadow allocations")
	}
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	nb := NewNetback(r.hv, 2)
	mac := nic.MAC(0xbb)
	if _, err := nb.CreateVif(d, mac, recv); err != nil {
		t.Fatal(err)
	}
	b := nic.Batch{Dst: mac, Count: 8, Bytes: 8 * 1514}
	settle := func() { r.eng.RunUntil(r.eng.Now().Add(units.Millisecond)) }
	assertAllocFree(t, "wire", recv, func() { nb.FromNIC(b); settle() })
	assertAllocFree(t, "local", recv, func() { nb.LocalTransfer(b); settle() })
	if nb.InFlight != 0 || nb.Dropped != 0 {
		t.Fatalf("inflight = %d, dropped = %d after settling", nb.InFlight, nb.Dropped)
	}
}

// TestDom0PoolSubmittersAllocationFree extends the pin to the other dom0
// paths: a VMDq queue-owning guest's translate-and-kick, an OVS flow-cache
// hit through a kernel datapath thread, a vhost poll round draining its
// shared ring, and a software-passthrough coalesced interrupt.
func TestDom0PoolSubmittersAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector's shadow allocations")
	}
	r := newRig(t, vmm.AllOptimizations)
	d1, recv1 := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	d2, recv2 := r.addGuest(t, "g2", vmm.HVM, vmm.Kernel2628)
	d3, recv3 := r.addGuest(t, "g3", vmm.HVM, vmm.Kernel2628)
	d4, recv4 := r.addGuest(t, "g4", vmm.HVM, vmm.Kernel2628)
	br := NewVMDqBridge(r.hv, 2)
	if err := br.AddVif(d1, nic.MAC(0xb1), recv1); err != nil {
		t.Fatal(err)
	}
	sw := NewOVSSwitch(r.hv)
	if err := sw.AddVif(d2, nic.MAC(0xb2), recv2); err != nil {
		t.Fatal(err)
	}
	vh := NewVhost(r.hv)
	if err := vh.AddVif(d3, nic.MAC(0xb3), recv3); err != nil {
		t.Fatal(err)
	}
	sp := NewSoftPassthrough(r.hv)
	if err := sp.AddVif(d4, nic.MAC(0xb4), recv4); err != nil {
		t.Fatal(err)
	}
	settle := func() { r.eng.RunUntil(r.eng.Now().Add(units.Millisecond)) }
	batch := func(mac uint64) nic.Batch { return nic.Batch{Dst: nic.MAC(mac), Count: 8, Bytes: 8 * 1514} }
	toVMDq, toOVS, toVhost, toSwPass := batch(0xb1), batch(0xb2), batch(0xb3), batch(0xb4)
	assertAllocFree(t, "vmdq", recv1, func() { br.FromNIC(toVMDq); settle() })
	assertAllocFree(t, "ovs", recv2, func() { sw.Inject(toOVS); settle() })
	assertAllocFree(t, "vhost", recv3, func() { vh.Inject(toVhost); settle() })
	assertAllocFree(t, "swpass", recv4, func() { sp.Inject(toSwPass); settle() })
	for _, dp := range []Datapath{br, sw, vh, sp} {
		if s := dp.Stats(); s.Dropped != 0 || s.InFlight != 0 {
			t.Fatalf("%s: dropped %d, in flight %d after settling", dp.Kind(), s.Dropped, s.InFlight)
		}
	}
}
