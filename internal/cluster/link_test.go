package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestLinkShapeValidation pins that a negative rate, latency or queue cap
// is rejected where the fabric is wired — by NewClos for either link class
// and by cluster.New — instead of surfacing later as an event scheduled in
// the past.
func TestLinkShapeValidation(t *testing.T) {
	bad := []LinkConfig{
		{Rate: -1},
		{Latency: -units.Second},
		{QueueCap: -units.KiB},
	}
	for _, lc := range bad {
		for _, class := range []string{"host", "trunk"} {
			topo := Topology{Leafs: 2, Spines: 1, HostsPerLeaf: 1}
			if class == "host" {
				topo.HostLink = lc
			} else {
				topo.TrunkLink = lc
			}
			_, err := NewClos(ClosConfig{Topo: topo})
			if err == nil || !strings.Contains(err.Error(), "clos: "+class+" link: negative link") {
				t.Errorf("NewClos with %s link %+v: err = %v, want a negative-link error", class, lc, err)
			}
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "cluster: negative link") {
					t.Errorf("cluster.New with link %+v panicked with %q, want a negative-link message", lc, msg)
				}
			}()
			New(Config{Hosts: 1, Link: lc})
		}()
	}
	if err := (LinkConfig{}).validate(); err != nil {
		t.Fatalf("zero LinkConfig (all defaults) rejected: %v", err)
	}
}

// TestToRForwardAllocationFree pins the pooled ToR path: once the switch
// has learned both MACs and its in-flight pool is warm, a unicast batch's
// ingress → egress link → deliver round trip heap-allocates nothing.
func TestToRForwardAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector's shadow allocations")
	}
	eng := sim.NewEngineArena(1, sim.NewArena())
	reg := obs.NewRegistry()
	s := newSwitch(eng, reg)
	delivered := 0
	for i := 0; i < 2; i++ {
		s.addPort(reg, fmt.Sprintf("h%d:eth0", i), LinkConfig{}, func(nic.Batch) { delivered++ })
	}
	const a, b nic.MAC = 0xa, 0xb
	s.ingress(1, nic.Batch{Src: b, Dst: nic.Broadcast, Count: 1, Bytes: 64})
	fwd := nic.Batch{Src: a, Dst: b, Count: 4, Bytes: 4 * 1514}
	for i := 0; i < 64; i++ {
		s.ingress(0, fwd)
	}
	eng.RunUntil(sim.Forever)
	before := delivered
	if avg := testing.AllocsPerRun(1000, func() {
		s.ingress(0, fwd)
		eng.RunUntil(sim.Forever)
	}); avg != 0 {
		t.Fatalf("steady-state ToR forward allocates %.1f allocs/op, want 0", avg)
	}
	if delivered-before != 1001 {
		t.Fatalf("delivered %d batches in the measured loop, want 1001", delivered-before)
	}
	if q := queuedBytes(s.links); q != 0 {
		t.Fatalf("%v still queued after the engine ran dry", q)
	}
}
