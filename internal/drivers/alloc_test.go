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
	if nb.inflight != 0 || nb.Dropped != 0 {
		t.Fatalf("inflight = %d, dropped = %d after settling", nb.inflight, nb.Dropped)
	}
}

// TestDom0PoolSubmittersAllocationFree extends the pin to the other two
// cpu.Pool submitters: a VMDq queue-owning guest's translate-and-kick and
// an OVS flow-cache hit through a kernel datapath thread.
func TestDom0PoolSubmittersAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector's shadow allocations")
	}
	r := newRig(t, vmm.AllOptimizations)
	d1, recv1 := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	d2, recv2 := r.addGuest(t, "g2", vmm.HVM, vmm.Kernel2628)
	br := NewVMDqBridge(r.hv, 2)
	if err := br.AddVif(d1, nic.MAC(0xb1), recv1); err != nil {
		t.Fatal(err)
	}
	sw := NewOVSSwitch(r.hv)
	if err := sw.AddVif(d2, nic.MAC(0xb2), recv2); err != nil {
		t.Fatal(err)
	}
	settle := func() { r.eng.RunUntil(r.eng.Now().Add(units.Millisecond)) }
	toVMDq := nic.Batch{Dst: nic.MAC(0xb1), Count: 8, Bytes: 8 * 1514}
	toOVS := nic.Batch{Dst: nic.MAC(0xb2), Count: 8, Bytes: 8 * 1514}
	assertAllocFree(t, "vmdq", recv1, func() { br.FromNIC(toVMDq); settle() })
	assertAllocFree(t, "ovs", recv2, func() { sw.Inject(toOVS); settle() })
	if br.Dropped != 0 || sw.Dropped != 0 {
		t.Fatalf("dropped: vmdq %d, ovs %d", br.Dropped, sw.Dropped)
	}
}
