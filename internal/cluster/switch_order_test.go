package cluster

import (
	"reflect"
	"testing"

	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// orderTestSwitch wires a bare Switch with n ports whose deliveries append
// the port index to a shared log.
func orderTestSwitch(n int) (*sim.Engine, *Switch, *[]int) {
	eng := sim.NewEngine(1)
	reg := obs.NewRegistry()
	s := newSwitch(eng, reg)
	log := &[]int{}
	for i := 0; i < n; i++ {
		i := i
		s.addPort(reg, "p", LinkConfig{}, func(nic.Batch) {
			*log = append(*log, i)
		})
	}
	return eng, s, log
}

func batchFrom(src, dst nic.MAC) nic.Batch {
	return nic.Batch{Src: src, Dst: dst, Count: 1, Bytes: 1514}
}

// TestSwitchFDBOrderingDeterministic pins the FDB iteration contract:
// FDBMACs walks first-learned order, re-learning a MAC on a new port keeps
// its position, and FlushPort preserves the survivors' relative order.
// This ordering is load-bearing — any flood or re-announce schedule derived
// from the FDB must be identical run to run.
func TestSwitchFDBOrderingDeterministic(t *testing.T) {
	_, s, _ := orderTestSwitch(4)
	macs := []nic.MAC{0xa0, 0xb0, 0xc0, 0xd0, 0xe0}
	ports := []int{2, 0, 3, 1, 2}
	for i, m := range macs {
		s.ingress(ports[i], batchFrom(m, nic.Broadcast))
	}
	if got := s.FDBMACs(); !reflect.DeepEqual(got, macs) {
		t.Fatalf("FDBMACs = %v, want first-learned order %v", got, macs)
	}

	// Re-learn 0xa0 on a different port: position must not change.
	s.ingress(1, batchFrom(0xa0, nic.Broadcast))
	if got := s.FDBMACs(); !reflect.DeepEqual(got, macs) {
		t.Fatalf("re-learn reordered FDB: %v, want %v", got, macs)
	}
	if p, _ := s.FDBPort(0xa0); p != 1 {
		t.Fatalf("re-learn did not move 0xa0: port %d, want 1", p)
	}

	// Move 0xb0 onto port 2 as well, then flush port 2: 0xb0 and 0xe0 go,
	// the survivors keep their relative order.
	s.ingress(2, batchFrom(0xb0, nic.Broadcast))
	if n := s.FlushPort(2); n != 2 {
		t.Fatalf("FlushPort(2) flushed %d entries, want 2", n)
	}
	want := []nic.MAC{0xa0, 0xc0, 0xd0}
	if got := s.FDBMACs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after flush FDBMACs = %v, want %v", got, want)
	}
	if _, ok := s.FDBPort(0xe0); ok {
		t.Fatal("flushed MAC still resolves")
	}
	if n := s.FlushPort(2); n != 0 {
		t.Fatalf("second flush found %d entries, want 0", n)
	}
}

// TestSwitchFloodOrderIsPortOrder pins that an unknown-destination flood
// delivers in ascending port order, repeatably.
func TestSwitchFloodOrderIsPortOrder(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		eng, s, log := orderTestSwitch(5)
		s.ingress(2, batchFrom(0x11, 0x99)) // 0x99 unknown → flood
		eng.RunUntil(units.Time(units.Millisecond))
		want := []int{0, 1, 3, 4} // every port but the ingress, in order
		if !reflect.DeepEqual(*log, want) {
			t.Fatalf("trial %d: flood delivery order %v, want %v", trial, *log, want)
		}
	}
}
