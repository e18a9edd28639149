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

// TestSwitchFDBOrderingDeterministic pins that forwarding never depends on
// the FDB's (map) iteration order: the data path only looks MACs up. Five
// MACs are learned, one is re-learned on a new port, and unicasts to each
// land on the port each MAC was last seen on, identically every trial.
func TestSwitchFDBOrderingDeterministic(t *testing.T) {
	macs := []nic.MAC{0xa0, 0xb0, 0xc0, 0xd0, 0xe0}
	ports := []int{2, 0, 3, 1, 2}
	for trial := 0; trial < 3; trial++ {
		eng, s, log := orderTestSwitch(5)
		for i, m := range macs {
			s.ingress(ports[i], batchFrom(m, nic.Broadcast))
		}
		// Re-learn 0xa0 on a different port: later frames follow it.
		s.ingress(1, batchFrom(0xa0, nic.Broadcast))
		eng.RunUntil(units.Time(units.Millisecond))
		*log = (*log)[:0]
		for _, m := range macs {
			s.ingress(4, batchFrom(0x11, m))
		}
		eng.RunUntil(units.Time(2 * units.Millisecond))
		// Send order, except that 0xd0's frame queues behind 0xa0's on port 1.
		want := []int{1, 0, 3, 2, 1}
		if !reflect.DeepEqual(*log, want) {
			t.Fatalf("trial %d: unicast delivery ports %v, want %v", trial, *log, want)
		}
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
