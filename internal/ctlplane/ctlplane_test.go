package ctlplane

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/units"
)

// baseScenario is a small healthy fleet: two VMs on host0 of a 2-host
// cluster, clients on host1, no faults, static placement.
func baseScenario() *Scenario {
	return &Scenario{
		Schema: SchemaVersion, Name: "base", Seed: 7,
		Hosts: 2, VFsPerPort: 8,
		RunMs: 1000,
		VMs: []VMSpec{
			{Name: "vm0", Host: 0, RateMbps: 300},
			{Name: "vm1", Host: 0, RateMbps: 300},
		},
	}
}

func TestRunScenarioHealthyFleet(t *testing.T) {
	rep, err := RunScenario(baseScenario(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations on a healthy run: %v", rep.Violations)
	}
	if rep.PlacementChurn != 0 || rep.Heals != 0 {
		t.Fatalf("static healthy fleet moved: churn=%d heals=%d", rep.PlacementChurn, rep.Heals)
	}
	// Two 300 Mbps services: goodput should be in that decade.
	if rep.GoodputMbps < 450 || rep.GoodputMbps > 650 {
		t.Fatalf("goodput = %d Mbps, want ≈600", rep.GoodputMbps)
	}
	if rep.Availability < 0.9 {
		t.Fatalf("availability = %v on a fault-free run", rep.Availability)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("unrecovered = %d on a fault-free run", rep.Unrecovered)
	}
}

func TestSpreadPolicyRebalances(t *testing.T) {
	sc := baseScenario()
	sc.Name = "spread"
	sc.Policy = "spread"
	sc.RunMs = 3000
	rep, err := RunScenario(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// Both VMs start on host0; spread wants |count| diff < 2, so exactly
	// one migration.
	if rep.PlacementChurn != 1 {
		t.Fatalf("churn = %d, want 1", rep.PlacementChurn)
	}
	hosts := map[int]int{}
	for _, p := range rep.Placements {
		hosts[p.Host]++
	}
	if hosts[0] != 1 || hosts[1] != 1 {
		t.Fatalf("placements = %+v, want one VM per host", rep.Placements)
	}
	if rep.DowntimeP99Us <= 0 {
		t.Fatal("migration happened but downtime histogram is empty")
	}
}

func TestBinPackStaysPut(t *testing.T) {
	sc := baseScenario()
	sc.Name = "binpack"
	sc.Policy = "binpack"
	sc.RunMs = 2000
	rep, err := RunScenario(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Already packed on host0: bin-packing must not move anything.
	if rep.PlacementChurn != 0 {
		t.Fatalf("churn = %d, want 0", rep.PlacementChurn)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

func TestHealRecoversSurpriseRemovedVF(t *testing.T) {
	sc := baseScenario()
	sc.Name = "heal"
	sc.Heal = true
	sc.RunMs = 3000
	// Permanent surprise removal of vm0's VF (duration 0 never returns):
	// only the controller's re-slot heal can restore the VF path.
	sc.Faults = []FaultSpec{{AtMs: 800, Kind: "vf-remove", Host: 0, VM: "vm0"}}
	rep, err := RunScenario(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Heals < 1 {
		t.Fatalf("heals = %d, want ≥1", rep.Heals)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("unrecovered = %d; heal should close the outage", rep.Unrecovered)
	}
}

func TestFrozenPlacementLeavesVFDead(t *testing.T) {
	sc := baseScenario()
	sc.Name = "frozen"
	sc.Heal = false
	sc.RunMs = 3000
	sc.Faults = []FaultSpec{{AtMs: 800, Kind: "vf-remove", Host: 0, VM: "vm0"}}
	rep, err := RunScenario(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Heals != 0 {
		t.Fatalf("heals = %d with healing disabled", rep.Heals)
	}
	// The bond's PV standby keeps the service alive (watchdog can't fix a
	// removed function, but miimon fails over) — so no invariant violation,
	// just a VF-less VM.
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

func TestAntiAffinityRepair(t *testing.T) {
	sc := baseScenario()
	sc.Name = "affinity"
	sc.Policy = "binpack" // even the packing policy must repair groups first
	sc.RunMs = 3000
	sc.VMs = []VMSpec{
		{Name: "vm0", Host: 0, RateMbps: 200, Group: "ha"},
		{Name: "vm1", Host: 0, RateMbps: 200, Group: "ha"},
	}
	rep, err := RunScenario(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	hosts := map[int]bool{}
	for _, p := range rep.Placements {
		if hosts[p.Host] {
			t.Fatalf("anti-affinity group co-located: %+v", rep.Placements)
		}
		hosts[p.Host] = true
	}
	if rep.PlacementChurn != 1 {
		t.Fatalf("churn = %d, want exactly the repair move", rep.PlacementChurn)
	}
}

func TestMoveBudgetCapsChurn(t *testing.T) {
	sc := baseScenario()
	sc.Name = "budget"
	sc.Policy = "spread"
	sc.Hosts = 3
	sc.RunMs = 4000
	sc.MoveBudget = 1
	sc.VMs = []VMSpec{
		{Name: "vm0", Host: 0, RateMbps: 150},
		{Name: "vm1", Host: 0, RateMbps: 150},
		{Name: "vm2", Host: 0, RateMbps: 150},
		{Name: "vm3", Host: 0, RateMbps: 150},
	}
	rep, err := RunScenario(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spread wants ≥2 moves (4 VMs over 3 hosts); the budget allows 1.
	if rep.PlacementChurn != 1 {
		t.Fatalf("churn = %d, want the budget cap of 1", rep.PlacementChurn)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

func TestDeterministicReplay(t *testing.T) {
	sc := baseScenario()
	sc.Name = "replay"
	sc.Policy = "spread"
	sc.Heal = true
	sc.RunMs = 3000
	sc.Faults = []FaultSpec{
		{AtMs: 900, Kind: "vf-remove", Host: 0, VM: "vm1"},
		{AtMs: 1200, Kind: "link-flap", Host: 1, Port: 0, DurationMs: 300},
	}
	run := func() []byte {
		rep, err := RunScenario(sc, 0, obs.NewRegistry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("replay diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestRunStepAndMidRunMutation steps a run to Done in slices of simulated
// time, with a timed fault against one VM, and checks that Finish freezes
// one report.
func TestRunStepAndMidRunMutation(t *testing.T) {
	sc := baseScenario()
	sc.Name = "step"
	sc.Heal = true
	sc.RunMs = 2500
	sc.Faults = []FaultSpec{{AtMs: 1200, Kind: "vf-remove", Host: 1, VM: "vm1"}}
	r, err := NewRun(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		r.Step(500 * units.Millisecond)
	}
	rep := r.Finish()
	if rep != r.Finish() {
		t.Fatal("Finish not idempotent")
	}
	if len(rep.Placements) != 2 {
		t.Fatalf("placements = %d, want 2", len(rep.Placements))
	}
	if rep.Heals < 1 {
		t.Fatalf("heals = %d, want the faulted VM healed", rep.Heals)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}
