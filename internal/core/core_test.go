package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/units"
	"repro/internal/vmm"
)

func TestTestbedConstruction(t *testing.T) {
	tb := NewTestbed(Config{Ports: 10, Opts: vmm.AllOptimizations})
	if len(tb.Ports) != 10 || len(tb.PFs) != 10 {
		t.Fatalf("ports = %d", len(tb.Ports))
	}
	// Every port's VFs are enabled.
	for _, p := range tb.Ports {
		for i := 0; i < p.NumVFs(); i++ {
			if !p.VFQueue(i).Function().Config().Present() {
				t.Fatalf("%s VF %d not enabled", p.Name(), i)
			}
		}
	}
	// The fabric holds 10 PFs + 70 VFs.
	if got := len(tb.Fabric.Functions()); got != 80 {
		t.Fatalf("functions = %d, want 80", got)
	}
	if tb.VMDq != nil {
		t.Fatal("VMDq should be off by default")
	}
}

func TestAddSRIOVGuestEndToEnd(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1, Opts: vmm.AllOptimizations})
	g, err := tb.AddSRIOVGuest("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		t.Fatal(err)
	}
	tb.StartUDP(g, model.LineRateUDP)
	u, res := tb.Measure(100*units.Millisecond, units.Second)
	tb.StopAll()
	r := res[g]
	if r.Goodput.Mbps() < 950 {
		t.Fatalf("goodput = %v", r.Goodput)
	}
	if u.PerGuest["guest-1"] <= 0 || u.Xen <= 0 {
		t.Fatalf("utilization = %+v", u)
	}
	// Optimized SR-IOV leaves dom0 near its baseline.
	if u.Dom0 > 6 {
		t.Fatalf("dom0 = %v, want ≈3%%", u.Dom0)
	}
}

func TestAddPVGuestEndToEnd(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1, Opts: vmm.AllOptimizations})
	g, err := tb.AddPVGuest("guest-1", vmm.PVM, vmm.Kernel2628, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb.StartUDP(g, model.LineRateUDP)
	u, res := tb.Measure(100*units.Millisecond, units.Second)
	tb.StopAll()
	if res[g].Goodput.Mbps() < 900 {
		t.Fatalf("goodput = %v", res[g].Goodput)
	}
	// PV pays with dom0 CPU.
	if u.Dom0 < 10 {
		t.Fatalf("dom0 = %v, want copy cost", u.Dom0)
	}
}

func TestAddVMDqGuestRequiresBridge(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1})
	if _, err := tb.AddBackendGuest("vmdq", "g", vmm.PVM, vmm.Kernel2628, 0, 0, nil); err == nil {
		t.Fatal("VMDq guest without bridge should fail")
	}
	tb2 := NewTestbed(Config{Ports: 1, VMDqThreads: 4, PortRate: model.VMDqRate})
	if _, err := tb2.AddBackendGuest("vmdq", "g", vmm.PVM, vmm.Kernel2628, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddBondedGuest(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1, Opts: vmm.AllOptimizations})
	g, err := tb.AddBondedGuest("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Bond == nil || g.VF == nil || g.PV == nil {
		t.Fatal("bond pieces missing")
	}
	if !g.Bond.ActiveVF() {
		t.Fatal("VF should start active")
	}
	tb.StartUDP(g, model.LineRateUDP)
	_, res := tb.Measure(50*units.Millisecond, 500*units.Millisecond)
	tb.StopAll()
	if res[g].Goodput.Mbps() < 940 {
		t.Fatalf("bonded goodput = %v", res[g].Goodput)
	}
}

func TestBadPortRejected(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1})
	if _, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, 5, 0, nil); err == nil {
		t.Fatal("bad port should fail")
	}
	if _, err := tb.AddPVGuest("g", vmm.PVM, vmm.Kernel2628, 5); err == nil {
		t.Fatal("bad port should fail")
	}
}

// TestBadVFRejected checks an out-of-range VF index is an error, not a
// panic, and is caught before a domain is created for the guest.
func TestBadVFRejected(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1})
	doms := len(tb.HV.Domains())
	for _, vf := range []int{-1, tb.Ports[0].NumVFs()} {
		if _, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, 0, vf, nil); err == nil {
			t.Fatalf("VF %d should fail", vf)
		}
	}
	if got := len(tb.HV.Domains()); got != doms {
		t.Fatalf("rejected guests left %d domains behind", got-doms)
	}
}

// TestBadIndicesChangeNothing checks every guest adder and ReattachVF turn
// an out-of-range port or VF into an error, not a panic, before any guest
// is recorded or any domain memory is allocated.
func TestBadIndicesChangeNothing(t *testing.T) {
	tb := NewTestbed(Config{Ports: 2, VMDqThreads: 1})
	existing, err := tb.AddPVGuest("existing", vmm.HVM, vmm.Kernel2628, 0)
	if err != nil {
		t.Fatal(err)
	}
	backends := len(tb.Datapaths())
	badVF := tb.Ports[0].NumVFs()
	type call struct {
		name string
		do   func() error
	}
	var calls []call
	for _, kind := range []string{"vf", "pv", "vmdq", "vhost", "ovs", "swpass"} {
		for _, port := range []int{-1, len(tb.Ports)} {
			kind, port := kind, port
			calls = append(calls, call{fmt.Sprintf("%s/port%d", kind, port), func() error {
				_, err := tb.AddBackendGuest(kind, "g", vmm.HVM, vmm.Kernel2628, port, 0, nil)
				return err
			}})
		}
	}
	calls = append(calls,
		call{"vf/vf-bad", func() error {
			_, err := tb.AddBackendGuest("vf", "g", vmm.HVM, vmm.Kernel2628, 0, badVF, nil)
			return err
		}},
		call{"bonded/vf-port-bad", func() error {
			_, err := tb.AddBondedGuestOn("g", vmm.HVM, vmm.Kernel2628, len(tb.Ports), 0, 0, nil)
			return err
		}},
		call{"bonded/pv-port-bad", func() error {
			_, err := tb.AddBondedGuestOn("g", vmm.HVM, vmm.Kernel2628, 0, 0, -1, nil)
			return err
		}},
		call{"bonded/vf-bad", func() error {
			_, err := tb.AddBondedGuestOn("g", vmm.HVM, vmm.Kernel2628, 0, -1, 1, nil)
			return err
		}},
		call{"reattach/port-bad", func() error {
			_, err := tb.ReattachVF(existing, len(tb.Ports), 0, nil)
			return err
		}},
		call{"reattach/vf-bad", func() error {
			_, err := tb.ReattachVF(existing, 1, badVF, nil)
			return err
		}},
	)
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			guests, free := len(tb.Guests()), tb.Machine.FreePages()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := c.do(); err == nil {
					t.Fatal("want an error")
				}
			}()
			if got := len(tb.Guests()); got != guests {
				t.Errorf("guests %d → %d", guests, got)
			}
			if got := tb.Machine.FreePages(); got != free {
				t.Errorf("free pages %d → %d", free, got)
			}
		})
	}
	if existing.VF != nil {
		t.Error("a failed reattach left a VF on the guest")
	}
	if got := len(tb.Datapaths()); got != backends {
		t.Errorf("bad indices built %d software backends", got-backends)
	}
}

// TestSecondAssignRefused checks a VF another guest holds cannot be
// assigned again: the second guest is refused before its domain exists (no
// stray domain, no machine memory taken), and the first keeps the VF's
// IOMMU context.
func TestSecondAssignRefused(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1})
	first, err := tb.AddSRIOVGuest("first", vmm.HVM, vmm.Kernel2628, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rid := uint16(tb.Ports[0].VFQueue(0).Function().RID())
	guests := append([]*Guest(nil), tb.Guests()...)
	doms, free := len(tb.HV.Domains()), tb.Machine.FreePages()
	if _, err := tb.AddSRIOVGuest("second", vmm.HVM, vmm.Kernel2628, 0, 0, nil); err == nil {
		t.Fatal("a second guest on port 0 VF 0 was accepted")
	}
	if dom, ok := tb.IOMMU.DomainOf(rid); !ok || dom != first.Dom.ID {
		t.Errorf("VF 0 context: domain %d (attached %v), want the first guest's %d", dom, ok, first.Dom.ID)
	}
	if got := tb.Guests(); len(got) != len(guests) || got[0] != guests[0] {
		t.Errorf("guests changed: %d → %d", len(guests), len(got))
	}
	if got := len(tb.HV.Domains()); got != doms {
		t.Errorf("domains %d → %d", doms, got)
	}
	if got := tb.Machine.FreePages(); got != free {
		t.Errorf("free pages %d → %d", free, got)
	}
}

// TestSecondBackendOnPortRefused checks a port's wire carries one software
// backend kind: a PV guest, or a bonded guest's PV standby, on a port a
// vhost guest uses is refused before its domain exists, and the vhost
// guest keeps its traffic. Guests of one backend still share a port.
func TestSecondBackendOnPortRefused(t *testing.T) {
	tb := NewTestbed(Config{Ports: 2, Opts: vmm.AllOptimizations})
	vh, err := tb.AddBackendGuest("vhost", "vhost", vmm.HVM, vmm.Kernel2628, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		add  func() (*Guest, error)
	}{
		{"pv", func() (*Guest, error) { return tb.AddPVGuest("pv", vmm.PVM, vmm.Kernel2628, 0) }},
		{"bonded", func() (*Guest, error) {
			return tb.AddBondedGuestOn("bonded", vmm.HVM, vmm.Kernel2628, 1, 0, 0, nil)
		}},
	} {
		guests, free := len(tb.Guests()), tb.Machine.FreePages()
		if _, err := c.add(); err == nil {
			t.Errorf("%s: a second backend on port 0 was accepted", c.name)
		}
		if got := len(tb.Guests()); got != guests {
			t.Errorf("%s: guests %d → %d", c.name, guests, got)
		}
		if got := tb.Machine.FreePages(); got != free {
			t.Errorf("%s: free pages %d → %d", c.name, free, got)
		}
	}
	if tb.IOMMU.Attached(uint16(tb.Ports[1].VFQueue(0).Function().RID())) {
		t.Error("the refused bonded guest holds its VF")
	}
	tb.StartUDP(vh, 500*units.Mbps)
	_, res := tb.Measure(50*units.Millisecond, 200*units.Millisecond)
	tb.StopAll()
	if res[vh].Goodput.Mbps() < 400 {
		t.Errorf("vhost goodput after the refusals = %v", res[vh].Goodput)
	}

	for _, name := range []string{"pv-a", "pv-b"} {
		if _, err := tb.AddPVGuest(name, vmm.PVM, vmm.Kernel2628, 1); err != nil {
			t.Fatalf("%s on port 1: %v", name, err)
		}
	}
}

func TestSixtyGuestsFitMemory(t *testing.T) {
	tb := NewTestbed(Config{Ports: 10, Opts: vmm.AllOptimizations})
	for i := 0; i < 60; i++ {
		port := i % 10
		vf := i / 10
		if _, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, port, vf, nil); err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
	}
	if len(tb.Guests()) != 60 {
		t.Fatal("guest count")
	}
}

func TestNativeBaselineGuest(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1})
	g, err := tb.AddSRIOVGuest("native", vmm.Native, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		t.Fatal(err)
	}
	tb.StartUDP(g, model.LineRateUDP)
	u, res := tb.Measure(100*units.Millisecond, units.Second)
	tb.StopAll()
	if res[g].Goodput.Mbps() < 950 {
		t.Fatalf("native goodput = %v", res[g].Goodput)
	}
	if u.Xen != 0 {
		t.Fatalf("native run charged xen: %v", u.Xen)
	}
}

func TestAggregateGoodput(t *testing.T) {
	tb := NewTestbed(Config{Ports: 2, Opts: vmm.AllOptimizations})
	g1, _ := tb.AddSRIOVGuest("g1", vmm.HVM, vmm.Kernel2628, 0, 0, nil)
	g2, _ := tb.AddSRIOVGuest("g2", vmm.HVM, vmm.Kernel2628, 1, 0, nil)
	tb.StartUDP(g1, model.LineRateUDP)
	tb.StartUDP(g2, model.LineRateUDP)
	_, res := tb.Measure(100*units.Millisecond, units.Second)
	tb.StopAll()
	agg := AggregateGoodput(res)
	if agg.Gbps() < 1.89 || agg.Gbps() > 1.95 {
		t.Fatalf("aggregate = %v, want ≈1.91 Gbps", agg)
	}
}

func TestStartTCPEquilibrium(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1, Opts: vmm.AllOptimizations})
	g, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		t.Fatal(err)
	}
	rate := tb.StartTCP(g, netstack.FixedITR(2000))
	if rate.Mbps() < 930 {
		t.Fatalf("TCP equilibrium = %v", rate)
	}
	_, res := tb.Measure(100*units.Millisecond, 500*units.Millisecond)
	tb.StopAll()
	if res[g].Goodput.Mbps() < 920 {
		t.Fatalf("TCP goodput = %v", res[g].Goodput)
	}
}

func TestReattachVF(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1, Opts: vmm.AllOptimizations})
	g, err := tb.AddBondedGuest("g", vmm.HVM, vmm.Kernel2628, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := g.VF
	old.Detach()
	tb.Eng.RunUntil(units.Time(5 * units.Millisecond))
	vf, err := tb.ReattachVF(g, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vf == old || !vf.Attached() {
		t.Fatal("reattach should produce a fresh live driver")
	}
	if g.VF != vf {
		t.Fatal("guest should track the new driver")
	}
}

func TestDescribeTopology(t *testing.T) {
	tb := NewTestbed(Config{Ports: 2})
	out := tb.Fabric.Describe()
	for _, want := range []string{"root complex", "eth0@", "eth1@", "vf0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q", want)
		}
	}
	if tb.Config().Ports != 2 {
		t.Fatal("Config accessor")
	}
}

func TestFivePortTestbedUsesTwoCards(t *testing.T) {
	// 5 ports → a 4-port card and a 1-port remainder on a second switch.
	tb := NewTestbed(Config{Ports: 5})
	if len(tb.Ports) != 5 {
		t.Fatalf("ports = %d", len(tb.Ports))
	}
	sw0 := tb.Ports[0].PF().Port().Switch()
	sw4 := tb.Ports[4].PF().Port().Switch()
	if sw0 == sw4 {
		t.Fatal("port 4 should be on a second card/switch")
	}
}

func TestLongRunStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run stability skipped in -short mode")
	}
	// 20 guests at aggregate line rate for 8 simulated seconds: goodput
	// per second must stay flat (no drift, no leak-driven slowdown), and so
	// must the events executed per second (a leaking schedule grows them);
	// the event queue must not grow without bound (timers armed and never
	// cancelled add pending events without adding executed ones).
	tb := NewTestbed(Config{Ports: 10, Opts: vmm.AllOptimizations})
	for i := 0; i < 20; i++ {
		g, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, i%10, i/10, netstack.DefaultAIC())
		if err != nil {
			t.Fatal(err)
		}
		tb.StartUDP(g, units.BitRate(float64(model.LineRateUDP)/2))
	}
	var perSecond, eventsPerSecond []float64
	var lastBytes units.Size
	var lastEvents uint64
	for s := 1; s <= 8; s++ {
		tb.Eng.RunUntil(units.Time(int64(s) * int64(units.Second)))
		var total units.Size
		for _, g := range tb.Guests() {
			total += g.Recv.Stats.AppBytes
		}
		perSecond = append(perSecond, float64(total-lastBytes))
		lastBytes = total
		eventsPerSecond = append(eventsPerSecond, float64(tb.Eng.Processed()-lastEvents))
		lastEvents = tb.Eng.Processed()
	}
	tb.StopAll()
	// Seconds 2..8 (post-warmup) within 2% of each other.
	base := perSecond[1]
	for i, v := range perSecond[1:] {
		if v < base*0.98 || v > base*1.02 {
			t.Fatalf("second %d drifted: %v vs base %v (all: %v)", i+2, v, base, perSecond)
		}
	}
	base = eventsPerSecond[1]
	for i, v := range eventsPerSecond[1:] {
		if v < base*0.98 || v > base*1.02 {
			t.Fatalf("second %d executed %v events vs base %v (all: %v)", i+2, v, base, eventsPerSecond)
		}
	}
	if pending := tb.Eng.Pending(); pending > 2000 {
		t.Fatalf("event queue grew to %d pending events", pending)
	}
}

// TestServiceDomainLedgerAcrossFlavors: the service domain is "dom0" on
// Xen and "host" on KVM, and the netback copy threads charge it either
// way. One PV-on-HVM guest at a quarter of line rate reads the same Dom0
// on both flavors, and on each the meter's total is exactly Dom0 + Xen +
// Guests: no cycles land in a ledger the report does not read.
func TestServiceDomainLedgerAcrossFlavors(t *testing.T) {
	measure := func(f vmm.Flavor) Utilization {
		tb := NewTestbed(Config{Seed: 1, Ports: 1, Opts: vmm.AllOptimizations, Flavor: f})
		g, err := tb.AddPVGuest("guest-1", vmm.HVM, vmm.Kernel2628, 0)
		if err != nil {
			t.Fatal(err)
		}
		tb.StartUDP(g, model.LineRateUDP/4)
		u, _ := tb.Measure(100*units.Millisecond, 200*units.Millisecond)
		tb.StopAll()
		return u
	}
	xen, kvm := measure(vmm.Xen), measure(vmm.KVM)
	for _, c := range []struct {
		flavor string
		u      Utilization
	}{{"xen", xen}, {"kvm", kvm}} {
		if sum := c.u.Dom0 + c.u.Xen + c.u.Guests; math.Abs(sum-c.u.Total) > 1e-9 {
			t.Errorf("%s: Dom0+Xen+Guests = %.4f%%, meter total = %.4f%%", c.flavor, sum, c.u.Total)
		}
	}
	if xen.Dom0 != kvm.Dom0 {
		t.Errorf("service domain: Xen dom0 %.4f%%, KVM host %.4f%%; want equal", xen.Dom0, kvm.Dom0)
	}
}
