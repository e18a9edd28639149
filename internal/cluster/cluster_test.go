package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/migration"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

func policy() netstack.ITRPolicy { return netstack.FixedITR(2000) }

// addSRIOV adds and connects one SR-IOV guest on the host.
func addSRIOV(t *testing.T, h *Host, name string, port, vf int) *core.Guest {
	t.Helper()
	g, err := h.Bed.AddSRIOVGuest(name, vmm.HVM, vmm.Kernel2628, port, vf, policy())
	if err != nil {
		t.Fatal(err)
	}
	h.Connect(g)
	return g
}

func TestCrossHostFlowDelivers(t *testing.T) {
	c := New(Config{Hosts: 2, Seed: 7})
	h0, h1 := c.Host(0), c.Host(1)
	src := addSRIOV(t, h0, "src", 0, 0)
	dst := addSRIOV(t, h1, "dst", 0, 0)
	if _, err := c.StartFlow(h0, src, h1, dst, 500*units.Mbps); err != nil {
		t.Fatal(err)
	}
	ms := c.Measure(300*units.Millisecond, units.Second)
	c.StopAll()

	got := ms[1].Results[dst].Goodput
	if got < 450*units.Mbps || got > 550*units.Mbps {
		t.Fatalf("cross-host goodput = %v, want ≈500Mbps", got)
	}
	// The switch learned both endpoints from real traffic/announcements.
	if _, ok := c.Switch.fdb[src.MAC]; !ok {
		t.Fatal("source MAC not learned")
	}
	if _, ok := c.Switch.fdb[dst.MAC]; !ok {
		t.Fatal("destination MAC not learned")
	}
	// Fabric instrumentation saw the traffic.
	if c.Obs.SumCounters("cluster.link.", ".tx_packets") == 0 {
		t.Fatal("no link tx accounted")
	}
	if c.Obs.FindHistogram("cluster.h1.fabric_latency").Mean() == 0 {
		t.Fatal("fabric latency histogram empty")
	}
	// The sender paid guest-side CPU for the stream.
	if ms[0].Util.Guests <= 0 {
		t.Fatal("sender host shows no guest CPU")
	}
}

func TestFabricTailDropUnderIncast(t *testing.T) {
	// Two hosts each blast ~900 Mbps at the same third host: its 1 GbE
	// downlink cannot carry 1.8 Gbps, so the switch egress queue must
	// tail-drop and aggregate goodput must cap near line rate.
	c := New(Config{Hosts: 3, Seed: 11})
	h2 := c.Host(2)
	r0 := addSRIOV(t, h2, "sink-0", 0, 0)
	r1 := addSRIOV(t, h2, "sink-1", 0, 1)
	s0 := addSRIOV(t, c.Host(0), "blaster-0", 0, 0)
	s1 := addSRIOV(t, c.Host(1), "blaster-1", 0, 0)
	mustFlow(t, c, c.Host(0), s0, h2, r0, 900*units.Mbps)
	mustFlow(t, c, c.Host(1), s1, h2, r1, 900*units.Mbps)
	ms := c.Measure(300*units.Millisecond, units.Second)
	c.StopAll()

	if c.FabricDrops() == 0 {
		t.Fatal("incast must tail-drop at the switch egress queue")
	}
	sum := ms[2].Results[r0].Goodput + ms[2].Results[r1].Goodput
	if sum > 1050*units.Mbps {
		t.Fatalf("aggregate into one downlink = %v, exceeds line rate", sum)
	}
}

func mustFlow(t *testing.T, c *Cluster, from *Host, src *core.Guest, to *Host, dst *core.Guest, rate units.BitRate) *Flow {
	t.Helper()
	f, err := c.StartFlow(from, src, to, dst, rate)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// migrationRig builds the standard 2-host migration scenario: bonded
// guest "vm" on h0 receiving a foreground stream from h1.
func migrationRig(t *testing.T, seed uint64) (*Cluster, *core.Guest) {
	t.Helper()
	c := New(Config{Hosts: 2, Seed: seed, Host: core.Config{GuestMemory: 128 * units.MiB}})
	h0, h1 := c.Host(0), c.Host(1)
	vm, err := h0.Bed.AddBondedGuest("vm", vmm.HVM, vmm.Kernel2628, 0, 0, policy())
	if err != nil {
		t.Fatal(err)
	}
	h0.Connect(vm)
	peer := addSRIOV(t, h1, "peer", 0, 0)
	mustFlow(t, c, h1, peer, h0, vm, 500*units.Mbps)
	return c, vm
}

func TestInterHostDNISMigration(t *testing.T) {
	c, vm := migrationRig(t, 21)
	h0, h1 := c.Host(0), c.Host(1)

	var res *migration.Result
	var mig *Migration
	c.Eng.At(units.Time(units.Second), "test:migrate", func() {
		var err error
		mig, err = c.MigrateDNIS(MigrationSpec{
			Src: h0, Guest: vm, Dst: h1, DstPort: 0, DstVF: 1, Policy: policy(),
		}, func(r *migration.Result) { res = r })
		if err != nil {
			t.Error(err)
		}
	})
	c.Eng.RunUntil(units.Time(60 * units.Second))
	if res == nil {
		t.Fatal("migration never completed")
	}
	if res.Err != nil {
		t.Fatalf("migration failed: %v", res.Err)
	}
	if res.SwitchOutage != model.DNISSwitchOutage {
		t.Fatalf("switch outage = %v", res.SwitchOutage)
	}
	if down := res.Downtime().Seconds(); down < 1.0 || down > 4.0 {
		t.Fatalf("downtime = %.2fs, want ≈1.5–3s over a contended fabric", down)
	}
	if lat := res.VFHotAddLatency(); lat < model.HotplugEventLatency || lat > model.HotplugEventLatency+100*units.Millisecond {
		t.Fatalf("VF hot-add latency = %v, want ≈%v", lat, model.HotplugEventLatency)
	}
	// The guest really lives on h1 now: bond on the new VF, service MAC
	// learned behind h1's port, foreground traffic reaching the target
	// receiver.
	if mig.Target == nil || mig.Target.Bond == nil || !mig.Target.Bond.ActiveVF() {
		t.Fatal("target guest not restored onto a VF-active bond")
	}
	sp, ok := c.Switch.fdb[vm.MAC]
	if !ok || sp != h1.swPort[0] {
		t.Fatalf("service MAC learned on switch port %d (ok=%v), want %d", sp, ok, h1.swPort[0])
	}
	if mig.Target.Recv.Stats.AppPackets == 0 {
		t.Fatal("no foreground traffic delivered at the target after migration")
	}
	// The source domain stays paused (it moved); the fabric carried the
	// page traffic; the downtime was fabric-visible as unclaimed frames.
	if !vm.Dom.Paused() {
		t.Fatal("source domain should stay paused after a remote migration")
	}
	pageBytes := int64(vm.Dom.Memory.Pages()) * 4096
	if got := c.Obs.Counter("cluster.migration.rx_bytes").Value(); got < pageBytes {
		t.Fatalf("fabric carried %d migration bytes, want ≥ one full memory copy (%d)", got, pageBytes)
	}
	if c.Obs.Counter("cluster.h0.unknown_mac_drops").Value() == 0 {
		t.Fatal("stop-and-copy window should strand foreground frames at the source host")
	}
}

// TestMigrationRejectsBadTarget checks a target port or VF the destination
// host does not have is refused before the hot removal: the source guest
// keeps its VF and keeps running.
func TestMigrationRejectsBadTarget(t *testing.T) {
	for _, badVF := range []bool{true, false} {
		name := "bad-port"
		if badVF {
			name = "bad-vf"
		}
		t.Run(name, func(t *testing.T) {
			c, vm := migrationRig(t, 21)
			dst := c.Host(1)
			port, vf := len(dst.Bed.Ports), 1
			if badVF {
				port, vf = 0, dst.Bed.Ports[0].NumVFs()
			}
			c.Eng.RunUntil(units.Time(units.Second))
			_, err := c.MigrateDNIS(MigrationSpec{
				Src: c.Host(0), Guest: vm, Dst: dst, DstPort: port, DstVF: vf, Policy: policy(),
			}, nil)
			if err == nil {
				t.Fatal("want an error")
			}
			c.Eng.RunUntil(units.Time(2 * units.Second))
			if vf := vm.Bond.VF(); vf == nil || !vf.Attached() || !vm.Bond.ActiveVF() {
				t.Error("source guest lost its VF")
			}
			if vm.Dom.Paused() {
				t.Error("source guest paused")
			}
		})
	}
}

// TestMigrationRejectsFullTarget checks a target host with no machine
// memory left for the restored domain is refused before the hot removal:
// the source guest keeps its VF and keeps running.
func TestMigrationRejectsFullTarget(t *testing.T) {
	c, vm := migrationRig(t, 24)
	dst := c.Host(1)
	for i := 0; dst.Bed.CheckGuestMemory() == nil; i++ {
		if _, err := dst.Bed.AddPVGuest(fmt.Sprintf("fill-%d", i), vmm.HVM, vmm.Kernel2628, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.RunUntil(units.Time(units.Second))
	if _, err := c.MigrateDNIS(MigrationSpec{
		Src: c.Host(0), Guest: vm, Dst: dst, DstPort: 0, DstVF: 1, Policy: policy(),
	}, nil); err == nil {
		t.Fatal("want an error")
	}
	c.Eng.RunUntil(units.Time(2 * units.Second))
	if vf := vm.Bond.VF(); vf == nil || !vf.Attached() || !vm.Bond.ActiveVF() {
		t.Error("source guest lost its VF")
	}
	if vm.Dom.Paused() {
		t.Error("source guest paused")
	}
}

func TestMigrationRetriesThroughLinkFlap(t *testing.T) {
	c, vm := migrationRig(t, 22)
	h0, h1 := c.Host(0), c.Host(1)

	var res *migration.Result
	c.Eng.At(units.Time(units.Second), "test:migrate", func() {
		if _, err := c.MigrateDNIS(MigrationSpec{
			Src: h0, Guest: vm, Dst: h1, DstPort: 0, DstVF: 1, Policy: policy(),
		}, func(r *migration.Result) { res = r }); err != nil {
			t.Error(err)
		}
	})
	// Flap the source uplink mid-pre-copy: in-flight chunks are lost at
	// the PHY and must be retransmitted.
	in := fault.NewInjector(c.Eng, nil)
	p := in.Watch(h0.Bed.Ports[0], h0.Bed.PFs[0])
	if err := in.Schedule(fault.Scenario{At: units.Time(2 * units.Second), Kind: fault.LinkFlap, Port: p, Duration: 200 * units.Millisecond}); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunUntil(units.Time(60 * units.Second))
	if res == nil {
		t.Fatal("migration never completed (hang)")
	}
	if res.Err != nil {
		t.Fatalf("a 200ms flap must be survivable, got: %v", res.Err)
	}
	if c.Obs.Get("cluster.migration.retries") == 0 {
		t.Fatal("flap during pre-copy should force chunk retransmissions")
	}
}

func TestMigrationAbortsCleanlyWhenFabricDies(t *testing.T) {
	c, vm := migrationRig(t, 23)
	h0, h1 := c.Host(0), c.Host(1)

	var res *migration.Result
	var mig *Migration
	c.Eng.At(units.Time(units.Second), "test:migrate", func() {
		var err error
		mig, err = c.MigrateDNIS(MigrationSpec{
			Src: h0, Guest: vm, Dst: h1, DstPort: 0, DstVF: 1, Policy: policy(),
		}, func(r *migration.Result) { res = r })
		if err != nil {
			t.Error(err)
		}
	})
	// Permanent link death mid-pre-copy: the channel must exhaust its
	// retries and fail the migration — never hang, never leave the guest
	// paused.
	c.Eng.At(units.Time(2*units.Second), "test:cut", func() {
		h0.Bed.Ports[0].SetLink(false)
	})
	c.Eng.RunUntil(units.Time(120 * units.Second))
	if res == nil {
		t.Fatal("migration hung on a dead fabric")
	}
	if res.Err == nil {
		t.Fatal("migration over a dead fabric must report failure")
	}
	if vm.Dom.Paused() {
		t.Fatal("aborted migration must leave the source guest running")
	}
	if mig.Target != nil {
		t.Fatal("no target guest should exist after a pre-copy abort")
	}
	if c.Obs.Counter("cluster.migration.aborts").Value() == 0 {
		t.Fatal("abort not accounted")
	}
}

// clusterFingerprint runs a representative cluster scenario (cross-host
// flows plus one inter-host migration) and returns the serialized metrics
// registry.
func clusterFingerprint(t *testing.T) []byte {
	t.Helper()
	c, vm := migrationRig(t, 33)
	h0, h1 := c.Host(0), c.Host(1)
	c.Eng.At(units.Time(500*units.Millisecond), "test:migrate", func() {
		if _, err := c.MigrateDNIS(MigrationSpec{
			Src: h0, Guest: vm, Dst: h1, DstPort: 0, DstVF: 1, Policy: policy(),
		}, nil); err != nil {
			t.Error(err)
		}
	})
	c.Measure(300*units.Millisecond, 10*units.Second)
	c.StopAll()
	var buf bytes.Buffer
	if err := c.Obs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClusterDeterminism(t *testing.T) {
	a := clusterFingerprint(t)
	b := clusterFingerprint(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical cluster runs diverged — fabric is not deterministic")
	}
}

func TestGuestMACsDistinctAcrossHosts(t *testing.T) {
	c := New(Config{Hosts: 3, Seed: 5})
	seen := map[nic.MAC]bool{}
	for i := 0; i < 3; i++ {
		g := addSRIOV(t, c.Host(i), "g", 0, 0)
		if seen[g.MAC] {
			t.Fatalf("duplicate MAC %v across hosts", g.MAC)
		}
		seen[g.MAC] = true
	}
}
