package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/units"
)

func newTestClos(t testing.TB, cfg ClosConfig) *Clos {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	c, err := NewClos(cfg)
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	return c
}

// oversubscription is the leaf uplink oversubscription ratio: edge capacity
// into a leaf divided by its trunk capacity out. 1.0 is non-blocking; 4.0
// means a 4:1 fabric.
func oversubscription(t Topology) float64 {
	t.fill()
	down := float64(t.HostsPerLeaf) * float64(t.HostLink.Rate)
	up := float64(t.Spines) * float64(t.TrunkLink.Rate)
	if up <= 0 {
		return math.Inf(1)
	}
	return down / up
}

func TestClosTopologyDefaultsAndValidation(t *testing.T) {
	var topo Topology
	topo.fill()
	if topo.Hosts() != 4 {
		t.Fatalf("default topology hosts = %d, want 4", topo.Hosts())
	}
	if got := oversubscription(topo); got != 1.0 {
		t.Fatalf("default oversubscription = %v, want 1.0 (trunk rate matches edge)", got)
	}
	if err := (Topology{Leafs: -1}).Validate(); err == nil {
		t.Fatal("negative leaf count should not validate")
	}

	over := OversubscribedTopology(4, 2, 8, 4.0)
	if got := oversubscription(over); got < 3.99 || got > 4.01 {
		t.Fatalf("OversubscribedTopology(.., 4.0) ratio = %v", got)
	}
}

type closLedger struct {
	injected, delivered, dropped int64
	bytes                        units.Size
	lastDelivery                 units.Time
}

func runRingLedger(t *testing.T, mode FastpathMode) ([]closLedger, uint64) {
	t.Helper()
	c := newTestClos(t, ClosConfig{
		Topo:     Topology{Leafs: 2, Spines: 2, HostsPerLeaf: 4},
		Seed:     7,
		Fastpath: mode,
	})
	// 4 VMs per host at 1/8 line rate each: every link stays far below
	// capacity, so fluid and packet worlds must agree exactly.
	flows := c.StartRing(4, model.ClusterLinkRate/8)
	c.Run(200 * units.Millisecond)
	c.StopAll()
	if !c.Drain(time100ms()) {
		t.Fatalf("mode %v: fabric did not drain (in flight: %d)", mode, c.InFlightPackets())
	}
	led := make([]closLedger, len(flows))
	for i, f := range flows {
		led[i] = closLedger{
			injected:     f.Injected(),
			delivered:    f.Delivered(),
			dropped:      f.Dropped(),
			bytes:        f.DeliveredBytes(),
			lastDelivery: f.lastDeliveryAt,
		}
		if f.InFlight() != 0 {
			t.Errorf("mode %v: flow %d leaks %d packets", mode, i, f.InFlight())
		}
	}
	return led, c.Eng.Processed()
}

func time100ms() units.Duration { return 100 * units.Millisecond }

// TestFluidPacketLedgerEquivalence is the in-package core of the
// fastpath≡packet differential: on an uncongested fabric, forced-fluid and
// forced-packet runs must produce identical per-flow ledgers — same packet
// counts, same bytes, and the same final delivery instant.
func TestFluidPacketLedgerEquivalence(t *testing.T) {
	on, onEvents := runRingLedger(t, FastpathOn)
	off, offEvents := runRingLedger(t, FastpathOff)
	if len(on) != len(off) {
		t.Fatalf("flow count mismatch: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Errorf("flow %d ledger diverges: fluid %+v packet %+v", i, on[i], off[i])
		}
		if on[i].dropped != 0 {
			t.Errorf("flow %d dropped %d packets on an uncongested fabric", i, on[i].dropped)
		}
	}
	if onEvents*10 >= offEvents {
		t.Errorf("fast-path event economy too weak: on=%d off=%d events", onEvents, offEvents)
	}
}

func TestClosAutoDemotesUnderIncastAndConservesPackets(t *testing.T) {
	c := newTestClos(t, ClosConfig{
		Topo:     OversubscribedTopology(2, 2, 8, 4.0),
		Seed:     11,
		Fastpath: FastpathAuto,
	})
	// 7 senders on leaf 0 blast one receiver on leaf 1 at line rate: the
	// receiver's edge link and the 4:1 trunks are both hopelessly
	// oversubscribed, so auto mode must demote and the fabric must drop.
	recv := c.topo.HostsPerLeaf // first host on leaf 1
	var flows []*ClosFlow
	for s := 0; s < 7; s++ {
		flows = append(flows, c.StartTransfer(s, 0, recv, 0, model.LineRateUDP, 2*units.MiB))
	}
	for i := 0; i < 100 && !allDone(flows); i++ {
		c.Run(50 * units.Millisecond)
	}
	c.StopAll()
	if !c.Drain(time100ms()) {
		t.Fatalf("fabric did not drain: %d in flight", c.InFlightPackets())
	}
	if c.Demotions() == 0 {
		t.Error("incast at 4:1 oversubscription should demote fluid flows")
	}
	if c.TierDrops() == 0 {
		t.Error("incast at 4:1 oversubscription should tail-drop")
	}
	if c.ReorderViolations() != 0 {
		t.Errorf("reorder violations: %d", c.ReorderViolations())
	}
	for i, f := range flows {
		if f.InFlight() != 0 {
			t.Errorf("flow %d: conservation broken, %d packets unaccounted", i, f.InFlight())
		}
	}
	if c.QueuedBytes() != 0 {
		t.Errorf("queues hold %v after drain", c.QueuedBytes())
	}
}

func allDone(flows []*ClosFlow) bool {
	for _, f := range flows {
		if !f.done {
			return false
		}
	}
	return true
}

func TestClosECMPStableAndRemapsMinimallyOnFlap(t *testing.T) {
	c := newTestClos(t, ClosConfig{
		Topo:     Topology{Leafs: 4, Spines: 4, HostsPerLeaf: 4},
		Seed:     3,
		Fastpath: FastpathOff,
	})
	hosts := c.topo.Hosts()
	var flows []*ClosFlow
	for h := 0; h < hosts; h++ {
		for v := 0; v < 2; v++ {
			f := c.StartFlow(h, v, (h+5)%hosts, v, model.ClusterLinkRate/16)
			if f.spine >= 0 {
				flows = append(flows, f)
			}
		}
	}
	before := make(map[*ClosFlow]int, len(flows))
	spread := map[int]int{}
	for _, f := range flows {
		before[f] = f.spine
		spread[f.spine]++
	}
	if len(spread) < 2 {
		t.Fatalf("ECMP put every flow on one spine: %v", spread)
	}
	c.Run(20 * units.Millisecond)

	// Kill spine 0 everywhere: only flows that crossed it may move.
	for l := 0; l < c.topo.Leafs; l++ {
		c.SetTrunk(l, 0, false)
	}
	for f, sp := range before {
		if sp == 0 && f.spine == 0 {
			t.Error("flow still routed over dead spine 0")
		}
		if sp != 0 && f.spine != sp {
			t.Errorf("flow on live spine %d moved to %d on an unrelated flap", sp, f.spine)
		}
	}
	c.Run(20 * units.Millisecond)

	// Restore: rendezvous hashing must put every flow back where it was.
	for l := 0; l < c.topo.Leafs; l++ {
		c.SetTrunk(l, 0, true)
	}
	for f, sp := range before {
		if f.spine != sp {
			t.Errorf("after repair flow maps to spine %d, want original %d", f.spine, sp)
		}
	}
	c.Run(20 * units.Millisecond)
	c.StopAll()
	if !c.Drain(time100ms()) {
		t.Fatalf("fabric did not drain: %d in flight", c.InFlightPackets())
	}
	if c.ReorderViolations() != 0 {
		t.Errorf("reroutes reordered %d batches within flows", c.ReorderViolations())
	}
}

func TestClosSameHostAndSameLeafPaths(t *testing.T) {
	c := newTestClos(t, ClosConfig{Topo: Topology{Leafs: 2, Spines: 2, HostsPerLeaf: 2}, Seed: 5})
	same := c.StartFlow(0, 0, 0, 1, model.ClusterLinkRate/4)
	leaf := c.StartFlow(0, 0, 1, 0, model.ClusterLinkRate/4)
	cross := c.StartFlow(0, 0, 2, 0, model.ClusterLinkRate/4)
	if len(same.path) != 0 {
		t.Errorf("same-host flow has %d hops, want 0", len(same.path))
	}
	if len(leaf.path) != 2 {
		t.Errorf("intra-leaf flow has %d hops, want 2", len(leaf.path))
	}
	if len(cross.path) != 4 {
		t.Errorf("cross-leaf flow has %d hops, want 4", len(cross.path))
	}
	c.Run(50 * units.Millisecond)
	c.StopAll()
	if !c.Drain(time100ms()) {
		t.Fatal("drain failed")
	}
	for _, f := range []*ClosFlow{same, leaf, cross} {
		if f.Delivered() == 0 || f.InFlight() != 0 {
			t.Errorf("flow %d→%d: delivered %d, in flight %d", f.SrcHost, f.DstHost, f.Delivered(), f.InFlight())
		}
	}
}

func TestClosPromotionAfterQuiescence(t *testing.T) {
	c := newTestClos(t, ClosConfig{
		Topo:     OversubscribedTopology(2, 2, 4, 2.0),
		Seed:     13,
		Fastpath: FastpathAuto,
	})
	// Phase 1: saturating incast forces demotion.
	recv := c.topo.HostsPerLeaf
	var hot []*ClosFlow
	for s := 0; s < 4; s++ {
		hot = append(hot, c.StartFlow(s, 0, recv, 0, model.LineRateUDP))
	}
	// A light background flow that shares no congested link keeps running.
	bg := c.StartFlow(recv+1, 0, recv+2, 0, model.ClusterLinkRate/32)
	c.Run(100 * units.Millisecond)
	if c.Demotions() == 0 {
		t.Fatal("saturating incast did not demote")
	}
	demoted := false
	for _, f := range hot {
		if !f.fluid {
			demoted = true
		}
	}
	if !demoted {
		t.Fatal("no hot flow is in packet mode under saturation")
	}
	// Phase 2: stop the incast; the survivors' paths go quiet and the
	// demoted-but-alive set should promote back within a few quiet windows.
	for _, f := range hot {
		f.Stop()
	}
	c.Run(200 * units.Millisecond)
	if !bg.fluid {
		t.Error("background flow should be (or return to) fluid after quiescence")
	}
	c.StopAll()
	if !c.Drain(time100ms()) {
		t.Fatal("drain failed")
	}
	for _, f := range append(hot, bg) {
		if f.InFlight() != 0 {
			t.Errorf("flow leaks %d packets across demote/promote", f.InFlight())
		}
	}
}

func TestClosDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		reg := obs.NewRegistry()
		c := newTestClos(t, ClosConfig{
			Topo:     OversubscribedTopology(2, 2, 4, 2.0),
			Seed:     99,
			Obs:      reg,
			Fastpath: FastpathAuto,
		})
		recv := c.topo.HostsPerLeaf
		for s := 0; s < 4; s++ {
			c.StartTransfer(s, 0, recv, 0, model.LineRateUDP, units.MiB)
		}
		c.Run(500 * units.Millisecond)
		c.StopAll()
		c.Drain(time100ms())
		out := ""
		for i, f := range c.Flows() {
			out += fmt.Sprintf("%d:%d/%d/%d@%d\n", i, f.Injected(), f.Delivered(), f.Dropped(), f.lastDeliveryAt)
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed clos runs diverge:\n%s\nvs\n%s", a, b)
	}
}
