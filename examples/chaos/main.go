// Chaos: a seeded randomized fault campaign against a DNIS bond, driven
// through the public API. Where examples/faults injects three hand-picked
// faults, this draws a Poisson fault storm — every fault kind, jittered
// durations, recovery cascades — deterministically from the engine's seed,
// arms it on the injector, and closes with the system-wide invariant audit:
// packet conservation per layer, interrupt and watchdog liveness, and pool
// integrity must all hold after the storm clears.
package main

import (
	"fmt"

	sriov "repro"
)

func main() {
	tb := sriov.NewTestbed(sriov.Config{
		Seed: 7, Ports: 2, Opts: sriov.AllOptimizations, NetbackThreads: 2,
	})
	g, err := tb.AddBondedGuestOn("guest-1", sriov.HVM, sriov.Kernel2628, 0, 0, 1, sriov.DefaultAIC())
	if err != nil {
		panic(err)
	}
	g.Bond.StartMonitor() // miimon, 100 ms
	tb.StartUDP(g, sriov.LineRateUDP)

	// Draw the campaign. Same seed + same config ⇒ the identical schedule,
	// every run — chaos without flakiness.
	plan := sriov.ChaosPlan(tb, sriov.ChaosConfig{
		Name:         "example",
		Start:        sriov.Time(sriov.Second),
		End:          sriov.Time(9 * sriov.Second),
		Ports:        2,
		VFsPerPort:   1,
		StormRate:    1.5,  // mean faults per simulated second
		CascadeProb:  0.25, // chance a fault spawns one mid-recovery
		CascadeDelay: 50 * sriov.Millisecond,
	})
	inj := sriov.NewFaultInjector(tb, nil)
	if err := sriov.ChaosArm(inj, plan); err != nil {
		panic(err)
	}
	fmt.Printf("campaign: %d faults planned over [1s, 9s):\n", len(plan))
	for _, s := range plan {
		fmt.Printf("  %8v  %-18v port=%d vf=%d dur=%v\n", s.At, s.Kind, s.Port, s.VF, s.Duration)
	}

	var lastBytes sriov.Size
	for t := sriov.Duration(sriov.Second); t <= 11*sriov.Second; t += sriov.Second {
		tb.Eng.RunUntil(sriov.Time(t))
		cur := g.Recv.Stats.AppBytes
		rate := sriov.BitRate(float64((cur - lastBytes).Bits()))
		lastBytes = cur
		slave := "VF active"
		if !g.Bond.ActiveVF() {
			slave = "PV standby carrying traffic"
		}
		fmt.Printf("[%7v] goodput %8v   %s\n", tb.Eng.Now(), rate, slave)
	}
	tb.StopAll()

	// The audit settles the bed, waits out any in-flight recovery, then
	// checks every invariant. Empty means the system healed completely.
	violations := sriov.AuditInvariants(tb)
	fmt.Printf("\ninjected=%d  fault-failovers=%d  failbacks=%d  VF reinits=%d  mbox retries=%d\n",
		inj.Injected, g.Bond.FaultFailovers, g.Bond.Failbacks, g.VF.Reinits, g.VF.MboxRetries)
	if len(violations) == 0 {
		fmt.Println("invariant audit: all invariants hold after the storm")
	} else {
		for _, v := range violations {
			fmt.Printf("invariant VIOLATED: %v\n", v)
		}
	}

	// One canned soak iteration — what `sriovsim -soak N` loops over seeds.
	r := sriov.ChaosSoak(42)
	fmt.Printf("\nsoak seed=%d: planned=%d recovered=%d availability=%.3f violations=%d\n",
		r.Seed, r.Planned, r.Recoveries, r.Availability, len(r.Violations))
}
