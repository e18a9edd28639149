package cluster

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/units"
)

// FuzzClosTopology fuzzes the fabric shape, link speeds, flow set, and a
// link flap, then asserts the structural invariants no input may break:
// ECMP never reorders within a flow, routes stay consistent with trunk
// state, packet conservation holds exactly per flow, and the fabric drains
// clean. This is the same discipline as the chaos audit, driven by
// adversarial topologies instead of fault scenarios.
func FuzzClosTopology(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint16(100), uint64(1), true)
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint16(1), uint64(42), false)
	f.Add(uint8(4), uint8(3), uint8(4), uint8(8), uint16(950), uint64(7), true)
	f.Add(uint8(3), uint8(2), uint8(3), uint8(5), uint16(400), uint64(99), true)
	f.Add(uint8(2), uint8(3), uint8(4), uint8(6), uint16(700), uint64(0), false)
	f.Fuzz(func(t *testing.T, leafs, spines, hpl, nf uint8, rateMbps uint16, seed uint64, flap bool) {
		topo := Topology{
			Leafs:        1 + int(leafs%4),
			Spines:       1 + int(spines%3),
			HostsPerLeaf: 1 + int(hpl%4),
		}
		// Trunks between 1/4× and 2× of the edge rate: covers oversubscribed
		// and over-provisioned fabrics.
		topo.TrunkLink.Rate = units.BitRate(1+int(rateMbps%8)) * units.Gbps / 4
		reg := obs.NewRegistry()
		c, err := NewClos(ClosConfig{Topo: topo, Seed: seed | 1, Obs: reg, Fastpath: FastpathAuto})
		if err != nil {
			t.Fatalf("NewClos(%+v): %v", topo, err)
		}
		rng := c.Eng.Stream("fuzz")
		hosts := c.topo.Hosts()
		demand := units.BitRate(1+int(rateMbps%1000)) * units.Mbps
		nFlows := 1 + int(nf%10)
		flows := make([]*ClosFlow, 0, nFlows)
		for i := 0; i < nFlows; i++ {
			src, dst := rng.Intn(hosts), rng.Intn(hosts)
			if rng.Intn(3) == 0 {
				flows = append(flows, c.StartTransfer(src, i, dst, i, demand, units.Size(1+rng.Intn(256))*units.KiB))
			} else {
				flows = append(flows, c.StartFlow(src, i, dst, i, demand))
			}
		}
		c.Run(30 * units.Millisecond)

		if flap {
			leaf, spine := rng.Intn(topo.Leafs), rng.Intn(topo.Spines)
			c.SetTrunk(leaf, spine, false)
			// Route consistency: no flow may still be mapped onto the dead
			// trunk pair if any live spine can carry it.
			anyLive := false
			for s := 0; s < topo.Spines; s++ {
				if s != spine {
					anyLive = true
				}
			}
			for _, fl := range flows {
				if fl.stopped || fl.done {
					continue // finished flows keep their last spine; only live ones reroute
				}
				if fl.spine == spine && anyLive &&
					c.leafOf(fl.SrcHost) == leaf && c.leafOf(fl.SrcHost) != c.leafOf(fl.DstHost) {
					t.Errorf("flow %d still routed over dead trunk l%d/s%d", fl.ID, leaf, spine)
				}
			}
			c.Run(20 * units.Millisecond)
			c.SetTrunk(leaf, spine, true)
			c.Run(30 * units.Millisecond)
		}

		// Rendezvous routes must be a pure function of (key, trunk state).
		for _, fl := range flows {
			if fl.stopped || fl.done || fl.spine < 0 {
				continue
			}
			sl, dl := c.leafOf(fl.SrcHost), c.leafOf(fl.DstHost)
			if want := c.pickSpine(fl.key, sl, dl); fl.spine != want {
				t.Errorf("flow %d on spine %d, rendezvous says %d", fl.ID, fl.spine, want)
			}
		}

		c.StopAll()
		if !c.Drain(5 * units.Second) {
			t.Fatalf("fabric did not drain: %d packets in flight", c.InFlightPackets())
		}
		if c.ReorderViolations() != 0 {
			t.Errorf("resequencers still hold %d batches after drain", c.ReorderViolations())
		}
		if !flap {
			if v := reg.Counter("cluster.clos.reorder_parks").Value(); v != 0 {
				t.Errorf("stable routing parked %d batches - ECMP reordered without a reroute", v)
			}
		}
		for _, fl := range flows {
			if fl.InFlight() != 0 {
				t.Errorf("flow %d: injected %d != delivered %d + dropped %d",
					fl.ID, fl.Injected(), fl.Delivered(), fl.Dropped())
			}
		}
		if q := c.QueuedBytes(); q != 0 {
			t.Errorf("queues hold %v after drain", q)
		}
		if n := c.Eng.Arena().Corruptions(); n != 0 {
			t.Errorf("arena corruptions: %d", n)
		}
	})
}
