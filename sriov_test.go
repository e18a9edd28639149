package sriov

import (
	"strings"
	"testing"

	"repro/internal/units"
)

// These tests exercise the public API surface end to end; the per-figure
// shape assertions live in internal/runner's suite pass and bench_test.go.

func TestQuickstartFlow(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1, Opts: AllOptimizations})
	g, err := tb.AddSRIOVGuest("guest-1", HVM, Kernel2628, 0, 0, DefaultAIC())
	if err != nil {
		t.Fatal(err)
	}
	tb.StartUDP(g, LineRateUDP)
	util, results := tb.Measure(Warmup, Window)
	tb.StopAll()
	if results[g].Goodput.Mbps() < 940 {
		t.Fatalf("goodput = %v", results[g].Goodput)
	}
	if util.Total <= 0 || util.Dom0 <= 0 {
		t.Fatalf("utilization = %+v", util)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"ext10g", "extrr", "faults",
		"fig06", "fig07", "fig08", "fig09", "fig10", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
		"fig26", "fig27", "fig28", "fig29", "fig30", "fig31",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
		if got[i].Title == "" || len(got[i].Points) == 0 || got[i].Build == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	_, err := RunExperiment("fig99")
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	for _, e := range Experiments() {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("error %q does not list valid id %s", err, e.ID)
		}
	}
}

func TestRunExperimentByID(t *testing.T) {
	fig, err := RunExperiment("fig07")
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig07" || len(fig.Series) == 0 {
		t.Fatalf("figure = %+v", fig)
	}
	if !fig.AllChecksPass() {
		t.Fatalf("fig07 checks failed: %v", fig.FailedChecks())
	}
}

func TestMigrationThroughPublicAPI(t *testing.T) {
	tb := NewTestbed(Config{Ports: 1, Opts: AllOptimizations, GuestMemory: 256 * units.MiB})
	g, err := tb.AddBondedGuest("guest-1", HVM, Kernel2628, 0, 0, DefaultAIC())
	if err != nil {
		t.Fatal(err)
	}
	tb.StartUDP(g, LineRateUDP)
	mgr := NewMigrationManager(tb, DefaultMigrationConfig())
	var res *MigrationResult
	err = mgr.MigrateDNIS(g.Dom, g.Bond, func() *VFDriver {
		vf, err := tb.ReattachVF(g, 0, 1, DefaultAIC())
		if err != nil {
			t.Error(err)
			return nil
		}
		return vf
	}, func(r *MigrationResult) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	tb.Eng.RunUntil(units.Time(20 * units.Second))
	tb.StopAll()
	if res == nil {
		t.Fatal("migration never completed")
	}
	if res.Downtime() <= 0 {
		t.Fatal("no downtime recorded")
	}
	if !g.Bond.ActiveVF() {
		t.Fatal("bond should be back on the VF")
	}
}

func TestKVMFlavorThroughPublicAPI(t *testing.T) {
	// §4: the architecture is VMM-agnostic. The same public API drives a
	// KVM-flavoured host with identical driver code.
	tb := NewTestbed(Config{Ports: 1, Opts: AllOptimizations, Flavor: KVM})
	g, err := tb.AddSRIOVGuest("guest-1", HVM, Kernel2628, 0, 0, DefaultAIC())
	if err != nil {
		t.Fatal(err)
	}
	tb.StartUDP(g, LineRateUDP)
	util, results := tb.Measure(Warmup, Window)
	tb.StopAll()
	if results[g].Goodput.Mbps() < 940 {
		t.Fatalf("goodput = %v", results[g].Goodput)
	}
	// The Utilization.Dom0 field reports the service domain — the host
	// kernel under KVM.
	if util.Dom0 <= 0 {
		t.Fatalf("service-domain utilization = %v", util.Dom0)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two runs with the same seed produce bit-identical measurements.
	run := func() (float64, int64, BitRate) {
		tb := NewTestbed(Config{Ports: 1, Seed: 1234, Opts: AllOptimizations})
		g, err := tb.AddSRIOVGuest("g", HVM, Kernel2628, 0, 0, DefaultAIC())
		if err != nil {
			t.Fatal(err)
		}
		tb.StartUDP(g, LineRateUDP)
		util, res := tb.Measure(Warmup, Window)
		tb.StopAll()
		return util.Total, res[g].Packets, res[g].Goodput
	}
	u1, p1, g1 := run()
	u2, p2, g2 := run()
	if u1 != u2 || p1 != p2 || g1 != g2 {
		t.Fatalf("replay diverged: (%v,%v,%v) vs (%v,%v,%v)", u1, p1, g1, u2, p2, g2)
	}
}
