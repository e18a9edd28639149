// Faults: the robustness subsystem end to end, driven through the public
// API. A guest runs line-rate UDP over a DNIS bond (VF active on port 0,
// PV standby on port 1) with miimon health polling; a deterministic fault
// schedule then takes the VF down three different ways — a link flap, a
// global device reset, and a surprise hot-removal — and the run log shows
// the monitor failing over to the PV NIC, the VF driver recovering via
// FLR, and the bond failing back.
package main

import (
	"fmt"

	sriov "repro"
)

func main() {
	tb := sriov.NewTestbed(sriov.Config{
		Ports: 2, Opts: sriov.AllOptimizations, NetbackThreads: 2,
	})
	g, err := tb.AddBondedGuestOn("guest-1", sriov.HVM, sriov.Kernel2628, 0, 0, 1, sriov.DefaultAIC())
	if err != nil {
		panic(err)
	}
	g.Bond.StartMonitor() // miimon, 100 ms
	tb.StartUDP(g, sriov.LineRateUDP)

	tr := sriov.NewTrace(4096).Filter("fault", "bond", "vf", "nic", "mailbox")
	tb.SetTracer(tr)
	inj := sriov.NewFaultInjector(tb, tr)
	inj.MustSchedule(sriov.FaultScenario{
		At: sriov.Time(2 * sriov.Second), Kind: sriov.LinkFlap,
		Port: 0, Duration: sriov.Second,
	})
	inj.MustSchedule(sriov.FaultScenario{
		At: sriov.Time(5 * sriov.Second), Kind: sriov.DeviceReset, Port: 0,
	})
	inj.MustSchedule(sriov.FaultScenario{
		At: sriov.Time(8 * sriov.Second), Kind: sriov.SurpriseRemoveVF,
		Port: 0, VF: 0, Duration: 1500 * sriov.Millisecond,
	})

	var lastBytes sriov.Size
	for t := sriov.Duration(sriov.Second); t <= 12*sriov.Second; t += sriov.Second {
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

	fmt.Println("\nFault and recovery event log:")
	for _, ev := range tr.Events() {
		fmt.Printf("  %v\n", ev)
	}
	fmt.Printf("\ninjected=%d  fault-failovers=%d  failbacks=%d  VF reinits=%d  mbox retries=%d\n",
		inj.Injected, g.Bond.FaultFailovers, g.Bond.Failbacks, g.VF.Reinits, g.VF.MboxRetries)
	if g.Bond.ActiveVF() && g.Bond.Failbacks >= 3 {
		fmt.Println("recovered from all three faults; VF slave active again")
	}
}
