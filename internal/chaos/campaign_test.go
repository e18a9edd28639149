package chaos_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

func stormConfig() chaos.Config {
	return chaos.Config{
		Name:  "test",
		Start: units.Time(units.Second), End: units.Time(6 * units.Second),
		Ports: 2, VFsPerPort: 7, StormRate: 2,
	}
}

// chaosRig is the bonded two-port testbed campaigns run against: VF on
// port 0, PV standby on port 1, miimon monitoring, line-rate UDP.
func chaosRig(t *testing.T, seed uint64) (*core.Testbed, *core.Guest, *fault.Injector) {
	t.Helper()
	tb := core.NewTestbed(core.Config{Seed: seed, Ports: 2, Opts: vmm.AllOptimizations, NetbackThreads: 2})
	g, err := tb.AddBondedGuestOn("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, 1, netstack.DefaultAIC())
	if err != nil {
		t.Fatal(err)
	}
	g.Bond.StartMonitor()
	tb.StartUDP(g, model.LineRateUDP)
	inj := fault.NewInjector(tb.Eng, nil)
	inj.Watch(tb.Ports[0], tb.PFs[0])
	inj.Watch(tb.Ports[1], tb.PFs[1])
	return tb, g, inj
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	cfg := stormConfig()
	a := chaos.Plan(sim.NewEngine(42), cfg)
	b := chaos.Plan(sim.NewEngine(42), cfg)
	if len(a) == 0 {
		t.Fatal("a 2-faults/s storm over 5 s planned nothing")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed and config produced different plans")
	}
	c := chaos.Plan(sim.NewEngine(43), cfg)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical plans")
	}
	// The plan must also be independent of unrelated stream consumption:
	// a campaign drawn after other subsystems used the engine's RNG is
	// the same campaign.
	eng := sim.NewEngine(42)
	eng.Stream("something-else").Uint64()
	d := chaos.Plan(eng, cfg)
	if fmt.Sprint(a) != fmt.Sprint(d) {
		t.Fatal("unrelated stream consumption perturbed the plan")
	}
}

func TestPlanStaysInWindowAndValid(t *testing.T) {
	cfg := stormConfig()
	cfg.CascadeProb, cfg.CascadeDelay = 0.5, 50*units.Millisecond
	plan := chaos.Plan(sim.NewEngine(7), cfg)
	var prev units.Time
	for _, s := range plan {
		if s.At < cfg.Start || s.At >= cfg.End {
			t.Errorf("%s at %v outside [%v, %v)", s.Kind, s.At, cfg.Start, cfg.End)
		}
		if s.At < prev {
			t.Errorf("plan not sorted: %v after %v", s.At, prev)
		}
		prev = s.At
		if s.Port < 0 || s.Port >= cfg.Ports {
			t.Errorf("%s targets port %d of %d", s.Kind, s.Port, cfg.Ports)
		}
		if s.VF < 0 || s.VF >= cfg.VFsPerPort {
			t.Errorf("%s targets VF %d of %d", s.Kind, s.VF, cfg.VFsPerPort)
		}
		switch s.Kind {
		case fault.LinkFlap, fault.MailboxDrop, fault.MailboxDelay,
			fault.QueueStall, fault.SurpriseRemoveVF:
			if s.Duration <= 0 {
				t.Errorf("windowed %s planned without a duration", s.Kind)
			}
		}
		if s.Kind == fault.MailboxDelay && s.Delay <= 0 {
			t.Errorf("mbox-delay planned without a delay")
		}
	}
}

func TestPlanCascadesExtendTheStorm(t *testing.T) {
	base := chaos.Plan(sim.NewEngine(42), stormConfig())
	cfg := stormConfig()
	cfg.CascadeProb, cfg.CascadeDelay = 1.0, 50*units.Millisecond
	with := chaos.Plan(sim.NewEngine(42), cfg)
	if len(with) <= len(base) {
		t.Fatalf("certain cascades added nothing: %d → %d scenarios", len(base), len(with))
	}
	// The storm portion is unchanged: every base scenario appears in the
	// cascaded plan too (cascades only draw after the storm is complete).
	set := make(map[string]bool, len(with))
	for _, s := range with {
		set[fmt.Sprint(s)] = true
	}
	for _, s := range base {
		if !set[fmt.Sprint(s)] {
			t.Fatalf("cascades perturbed the storm: %v missing from cascaded plan", s)
		}
	}
}

func TestSpacedPlansJitteredEpisodes(t *testing.T) {
	cfg := stormConfig()
	every := 2 * units.Second
	plan := chaos.Spaced(sim.NewEngine(9), cfg, fault.QueueStall, 4, every)
	if len(plan) != 4 {
		t.Fatalf("planned %d episodes, want 4", len(plan))
	}
	for i, s := range plan {
		if s.Kind != fault.QueueStall {
			t.Fatalf("episode %d kind = %s", i, s.Kind)
		}
		lo := cfg.Start.Add(units.Duration(i) * every)
		if s.At < lo || s.At > lo.Add(every/10) {
			t.Errorf("episode %d at %v outside [%v, %v]", i, s.At, lo, lo.Add(every/10))
		}
	}
}

func TestArmAppliesWholePlan(t *testing.T) {
	tb, _, inj := chaosRig(t, 42)
	cfg := stormConfig()
	plan := chaos.Plan(tb.Eng, cfg)
	if err := chaos.Arm(inj, plan); err != nil {
		t.Fatal(err)
	}
	tb.Eng.RunUntil(units.Time(8 * units.Second)) // End + the longest window
	tb.StopAll()
	if inj.Injected != int64(len(plan)) {
		t.Fatalf("injected %d of %d planned scenarios", inj.Injected, len(plan))
	}
}

func TestArmReportsInvalidScenario(t *testing.T) {
	tb := core.NewTestbed(core.Config{Ports: 1, Opts: vmm.AllOptimizations})
	inj := fault.NewInjector(tb.Eng, nil)
	inj.Watch(tb.Ports[0], tb.PFs[0])
	err := chaos.Arm(inj, []fault.Scenario{
		{At: units.Time(units.Second), Kind: fault.DeviceReset, Port: 0},
		{At: units.Time(units.Second), Kind: fault.LinkFlap, Port: 5, Duration: units.Second},
	})
	if err == nil {
		t.Fatal("out-of-range port should fail Arm")
	}
	if !strings.Contains(err.Error(), "port index 5") {
		t.Fatalf("error %q does not name the bad target", err)
	}
}

// TestFLRDuringMailboxRetry exercises the correlated preset: a mailbox
// request is forced into its retry loop by the drop window, then the
// global reset lands mid-retry. The FLR path must abort the transaction
// cleanly — no retry exhaustion, driver healthy again afterwards.
func TestFLRDuringMailboxRetry(t *testing.T) {
	tb, g, inj := chaosRig(t, 42)
	at := units.Time(1500 * units.Millisecond)
	if err := chaos.Arm(inj, chaos.FLRDuringMailboxRetry(at, 0)); err != nil {
		t.Fatal(err)
	}
	tb.Eng.At(at.Add(100*units.Microsecond), "test:vlan", func() {
		if err := g.VF.JoinVLAN(100); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.RunUntil(units.Time(4 * units.Second))
	tb.StopAll()
	if inj.Injected != 2 {
		t.Fatalf("injected = %d, want 2", inj.Injected)
	}
	if g.VF.Reinits < 1 {
		t.Fatalf("reinits = %d, want ≥ 1 (the reset must drive an FLR)", g.VF.Reinits)
	}
	if g.VF.MboxFailures != 0 {
		t.Fatalf("mailbox failures = %d: the FLR must abort the retry loop, not exhaust it", g.VF.MboxFailures)
	}
	if !g.VF.Healthy() || !g.VF.MACConfirmed {
		t.Fatalf("driver not recovered: healthy=%v macOK=%v", g.VF.Healthy(), g.VF.MACConfirmed)
	}
	if vs := chaos.AuditTestbed(tb); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
}
