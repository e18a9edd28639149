package chaos_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/units"
)

func TestSLOMeasuresLinkFlapRecovery(t *testing.T) {
	tb, g, inj := chaosRig(t, 42)
	reg := obs.NewRegistry()
	nominal := model.PacketsPerSecond(model.LineRateUDP, model.FrameSize)
	slo := chaos.NewSLO(tb.Eng, reg, nominal, func() int64 { return g.Recv.Stats.AppPackets })
	slo.Attach(inj)

	inj.MustSchedule(fault.Scenario{
		At: units.Time(units.Second), Kind: fault.LinkFlap, Port: 0,
		Duration: 300 * units.Millisecond,
	})
	tb.Eng.RunUntil(units.Time(3 * units.Second))
	rep := slo.Finish()
	tb.StopAll()

	if rep.Recoveries != 1 || rep.Unrecovered != 0 {
		t.Fatalf("recoveries=%d unrecovered=%d, want 1/0", rep.Recoveries, rep.Unrecovered)
	}
	// One recovery, so the MTTR histogram's mean is its one observation:
	// detection (≤ one miimon period) + the failover outage window; well
	// under the flap duration itself thanks to the standby.
	mttr := slo.MTTR(fault.LinkFlap).Mean()
	if mttr < 50*units.Millisecond || mttr > 500*units.Millisecond {
		t.Fatalf("MTTR = %v, want failover-bounded (50–500 ms)", mttr)
	}
	if us := reg.Counter("chaos.mttr_us").Value(); us != int64(mttr/units.Microsecond) {
		t.Fatalf("chaos.mttr_us = %d, want %d", us, int64(mttr/units.Microsecond))
	}
	if rep.Availability <= 0.8 || rep.Availability >= 1.0 {
		t.Fatalf("availability = %.3f, want in (0.8, 1.0): one bounded outage over 3 s", rep.Availability)
	}
}

func TestSLOCleanRunIsFullyAvailable(t *testing.T) {
	tb, g, inj := chaosRig(t, 42)
	reg := obs.NewRegistry()
	nominal := model.PacketsPerSecond(model.LineRateUDP, model.FrameSize)
	slo := chaos.NewSLO(tb.Eng, reg, nominal, func() int64 { return g.Recv.Stats.AppPackets })
	slo.Attach(inj)
	tb.Eng.RunUntil(units.Time(2 * units.Second))
	rep := slo.Finish()
	tb.StopAll()
	if rep.Availability < 0.99 {
		t.Fatalf("availability = %.3f on a fault-free run", rep.Availability)
	}
	if rep.Recoveries != 0 || rep.Unrecovered != 0 {
		t.Fatalf("phantom outages: recoveries=%d unrecovered=%d", rep.Recoveries, rep.Unrecovered)
	}
	// The headline counters exist (as explicit zeros) even on clean runs.
	if reg.Counter("chaos.mttr_us").Value() != 0 || reg.Counter("chaos.unrecovered").Value() != 0 {
		t.Fatal("clean-run counters should be explicit zeros")
	}
}

func TestSLOCountsUnrecoveredOutages(t *testing.T) {
	tb, g, inj := chaosRig(t, 42)
	reg := obs.NewRegistry()
	nominal := model.PacketsPerSecond(model.LineRateUDP, model.FrameSize)
	slo := chaos.NewSLO(tb.Eng, reg, nominal, func() int64 { return g.Recv.Stats.AppPackets })
	slo.Attach(inj)
	// Stop the monitor: nothing fails over, so a long flap never recovers
	// within the horizon.
	g.Bond.StopMonitor()
	inj.MustSchedule(fault.Scenario{
		At: units.Time(units.Second), Kind: fault.LinkFlap, Port: 0,
		Duration: 5 * units.Second,
	})
	tb.Eng.RunUntil(units.Time(2 * units.Second))
	rep := slo.Finish()
	tb.StopAll()
	if rep.Unrecovered != 1 || rep.Recoveries != 0 {
		t.Fatalf("unrecovered=%d recoveries=%d, want 1/0", rep.Unrecovered, rep.Recoveries)
	}
	if reg.Counter("chaos.unrecovered").Value() != 1 {
		t.Fatal("chaos.unrecovered not recorded")
	}
}
