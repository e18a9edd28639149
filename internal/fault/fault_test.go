package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/vmm"
)

// bondRig is a two-port testbed with one bonded guest under line-rate UDP
// and miimon health polling — the fault injector's natural prey.
func bondRig(t *testing.T) (*core.Testbed, *core.Guest, *fault.Injector) {
	t.Helper()
	tb := core.NewTestbed(core.Config{Ports: 2, Opts: vmm.AllOptimizations, NetbackThreads: 2})
	g, err := tb.AddBondedGuestOn("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, 1, netstack.DefaultAIC())
	if err != nil {
		t.Fatal(err)
	}
	g.Bond.StartMonitor()
	tb.StartUDP(g, model.LineRateUDP)
	inj := fault.NewInjector(tb.Eng, nil)
	inj.Watch(tb.Ports[0], tb.PFs[0])
	return tb, g, inj
}

func pktsAt(tb *core.Testbed, g *core.Guest, at units.Duration, out *int64) {
	tb.Eng.At(units.Time(at), "test:mark", func() { *out = g.Recv.Stats.AppPackets })
}

func TestBondFaultFailover(t *testing.T) {
	tb, g, inj := bondRig(t)
	inj.MustSchedule(fault.Scenario{
		At: units.Time(units.Second), Kind: fault.LinkFlap, Port: 0,
		Duration: 500 * units.Millisecond,
	})

	var at500ms, at1s, at1250, at1450 int64
	pktsAt(tb, g, 500*units.Millisecond, &at500ms)
	pktsAt(tb, g, units.Second, &at1s)
	pktsAt(tb, g, 1250*units.Millisecond, &at1250)
	pktsAt(tb, g, 1450*units.Millisecond, &at1450)
	tb.Eng.At(units.Time(1300*units.Millisecond), "test:on-pv", func() {
		if g.Bond.ActiveVF() {
			t.Error("bond should be on the PV standby at 1.3s")
		}
	})
	tb.Eng.RunUntil(units.Time(3 * units.Second))
	tb.StopAll()

	if g.Bond.FaultFailovers != 1 {
		t.Fatalf("fault failovers = %d, want 1", g.Bond.FaultFailovers)
	}
	if g.Bond.Failbacks != 1 {
		t.Fatalf("failbacks = %d, want 1", g.Bond.Failbacks)
	}
	if !g.Bond.ActiveVF() {
		t.Fatal("bond should have failed back to the VF slave")
	}

	// The standby carried near-nominal traffic while the VF was down.
	nominal := float64(at1s-at500ms) / 0.5 // pps before the fault
	carried := float64(at1450 - at1250)
	if carried < nominal*0.2*0.8 {
		t.Fatalf("standby carried %.0f pkts over 200 ms, want ≥ %.0f",
			carried, nominal*0.2*0.8)
	}

	// Bounded outage: total loss over the whole episode is under the
	// detection (≤100 ms miimon) + failover (100 ms) budget, with margin.
	expected := nominal * 2.0 // 1s..3s at nominal
	lost := expected - float64(g.Recv.Stats.AppPackets-at1s)
	if lost > nominal*0.3 {
		t.Fatalf("lost %.0f pkts, budget %.0f", lost, nominal*0.3)
	}
}

func TestSurpriseRemovalWatchdogRecovery(t *testing.T) {
	tb, g, inj := bondRig(t)
	inj.MustSchedule(fault.Scenario{
		At: units.Time(units.Second), Kind: fault.SurpriseRemoveVF, Port: 0, VF: 0,
		Duration: 800 * units.Millisecond,
	})
	tb.Eng.RunUntil(units.Time(3 * units.Second))
	tb.StopAll()
	if g.VF.Reinits != 1 {
		t.Fatalf("reinits = %d, want 1 (watchdog FLR after the VF returned)", g.VF.Reinits)
	}
	if !g.Bond.ActiveVF() || g.Bond.Failbacks != 1 || !g.VF.MACConfirmed {
		t.Fatalf("recovery incomplete: onVF=%v failbacks=%d macOK=%v",
			g.Bond.ActiveVF(), g.Bond.Failbacks, g.VF.MACConfirmed)
	}
}

// faultRun drives a fixed multi-fault schedule and returns the full trace,
// for the determinism check.
func faultRun(t *testing.T) string {
	tb, g, inj := bondRig(t)
	tr := obs.NewTrace(8192, 0)
	tb.SetTracer(tr)
	inj.Tracer = tr

	ms := units.Millisecond
	inj.MustSchedule(fault.Scenario{At: units.Time(1000 * ms), Kind: fault.LinkFlap, Port: 0, Duration: 300 * ms})
	inj.MustSchedule(fault.Scenario{At: units.Time(1500 * ms), Kind: fault.MailboxDrop, Port: 0, Duration: 2 * ms})
	inj.MustSchedule(fault.Scenario{At: units.Time(2000 * ms), Kind: fault.QueueStall, Port: 0, VF: 0, Duration: 200 * ms})
	inj.MustSchedule(fault.Scenario{At: units.Time(2500 * ms), Kind: fault.DeviceReset, Port: 0})
	inj.MustSchedule(fault.Scenario{At: units.Time(3000 * ms), Kind: fault.SurpriseRemoveVF, Port: 0, VF: 0, Duration: 400 * ms})
	tb.Eng.At(units.Time(1500*ms+100*units.Microsecond), "test:vlan", func() {
		if err := g.VF.JoinVLAN(100); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.RunUntil(units.Time(5 * units.Second))
	tb.StopAll()

	var sb strings.Builder
	for _, e := range tr.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestFaultScheduleIsDeterministic(t *testing.T) {
	a := faultRun(t)
	b := faultRun(t)
	if a != b {
		t.Fatal("identical fault schedules produced different traces")
	}
	for _, want := range []string{"link-flap", "mbox-drop", "queue-stall", "device-reset", "vf-remove", "failover", "failback", "reinit"} {
		if !strings.Contains(a, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	tb := core.NewTestbed(core.Config{Ports: 1, Opts: vmm.AllOptimizations})
	inj := fault.NewInjector(tb.Eng, nil)
	// A rejected scenario names both the fault kind and the bad target, so
	// generated campaigns fail diagnosably.
	err := inj.Schedule(fault.Scenario{Kind: fault.LinkFlap, Port: 3, Duration: units.Second})
	if err == nil {
		t.Fatal("unwatched port should be rejected")
	}
	for _, want := range []string{"link-flap", "port index 3", "0 port(s)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unwatched-port error %q missing %q", err, want)
		}
	}
	inj.Watch(tb.Ports[0], tb.PFs[0])
	err = inj.Schedule(fault.Scenario{Kind: fault.MailboxDrop, Port: 0})
	if err == nil {
		t.Fatal("windowed fault without duration should be rejected")
	}
	for _, want := range []string{"mbox-drop", tb.Ports[0].Name(), "positive duration"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("no-duration error %q missing %q", err, want)
		}
	}
	err = inj.Schedule(fault.Scenario{Kind: fault.QueueStall, Port: 0, VF: 99, Duration: units.Second})
	if err == nil {
		t.Fatal("bad VF index should be rejected")
	}
	for _, want := range []string{"queue-stall", "VF 99", tb.Ports[0].Name()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("bad-VF error %q missing %q", err, want)
		}
	}
	if err := inj.Schedule(fault.Scenario{Kind: fault.Kind(77), Port: 0}); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
	if err := inj.Schedule(fault.Scenario{At: units.Time(units.Second), Kind: fault.DeviceReset, Port: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestMustSchedulePanicNamesScenario(t *testing.T) {
	tb := core.NewTestbed(core.Config{Ports: 1, Opts: vmm.AllOptimizations})
	inj := fault.NewInjector(tb.Eng, nil)
	inj.Watch(tb.Ports[0], tb.PFs[0])
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("MustSchedule on an invalid scenario should panic")
		}
		msg := fmt.Sprint(p)
		for _, want := range []string{"MustSchedule", "vf-remove", "port=0", "vf=42"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	inj.MustSchedule(fault.Scenario{At: units.Time(units.Second), Kind: fault.SurpriseRemoveVF, Port: 0, VF: 42})
}

// TestInjectClearedHooks checks the OnInject/OnCleared observation points
// fire once per scenario, in order, with the scenario passed through.
func TestInjectClearedHooks(t *testing.T) {
	tb, _, inj := bondRig(t)
	var events []string
	inj.OnInject = func(s fault.Scenario) {
		events = append(events, "inject:"+s.Kind.String())
	}
	inj.OnCleared = func(s fault.Scenario) {
		events = append(events, "cleared:"+s.Kind.String())
	}
	inj.MustSchedule(fault.Scenario{At: units.Time(units.Second), Kind: fault.LinkFlap, Port: 0,
		Duration: 200 * units.Millisecond})
	inj.MustSchedule(fault.Scenario{At: units.Time(2 * units.Second), Kind: fault.QueueStall, Port: 0, VF: 0,
		Duration: 100 * units.Millisecond})
	tb.Eng.RunUntil(units.Time(3 * units.Second))
	tb.StopAll()
	want := []string{"inject:link-flap", "cleared:link-flap", "inject:queue-stall", "cleared:queue-stall"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("hook sequence = %v, want %v", events, want)
	}
}
