// Migration: DNIS (§4.4) end to end, driven through the public API rather
// than the experiment harness. A guest runs netperf over a bonded
// VF-active/PV-standby interface; at t = 4.5 s the VF is virtually
// hot-removed (bond fails over to the PV NIC, ≈0.6 s outage), the VM
// live-migrates, and a VF is hot-added back at the target.
package main

import (
	"fmt"

	sriov "repro"
)

func main() {
	tb := sriov.NewTestbed(sriov.Config{
		Ports: 1, Opts: sriov.AllOptimizations,
		GuestMemory: 512 * 1024 * 1024,
	})
	g, err := tb.AddBondedGuest("guest-1", sriov.HVM, sriov.Kernel2628, 0, 0, sriov.DefaultAIC())
	if err != nil {
		panic(err)
	}
	tb.StartUDP(g, sriov.LineRateUDP)

	mgr := sriov.NewMigrationManager(tb)
	var res *sriov.MigrationResult
	tb.Eng.At(sriov.Time(4500*sriov.Millisecond), "example:migrate", func() {
		fmt.Printf("[%7v] migration manager: signalling virtual hot-removal of the VF\n", tb.Eng.Now())
		err := mgr.MigrateDNIS(g.Dom, g.Bond, func() *sriov.VFDriver {
			fmt.Printf("[%7v] target host: virtual hot add-on, attaching a fresh VF\n", tb.Eng.Now())
			vf, err := tb.ReattachVF(g, 0, 1, sriov.DefaultAIC())
			if err != nil {
				panic(err)
			}
			return vf
		}, func(r *sriov.MigrationResult) { res = r })
		if err != nil {
			panic(err)
		}
	})

	// Report goodput each second while the migration runs.
	var lastBytes sriov.Size
	for t := sriov.Duration(sriov.Second); t <= 16*sriov.Second; t += sriov.Second {
		tb.Eng.RunUntil(sriov.Time(t))
		cur := g.Recv.Stats.AppBytes
		rate := sriov.BitRate(float64((cur - lastBytes).Bits()))
		lastBytes = cur
		status := "VF active"
		if !g.Bond.ActiveVF() {
			status = "PV standby carrying traffic"
		}
		if g.Dom.Paused() {
			status = "stop-and-copy (paused)"
		}
		fmt.Printf("[%7v] goodput %8v   %s\n", tb.Eng.Now(), rate, status)
	}
	tb.StopAll()

	if res == nil {
		fmt.Println("migration did not complete in the window")
		return
	}
	fmt.Println("\nmigration summary:")
	fmt.Printf("  interface-switch outage: %v (bond failover to PV NIC)\n", res.SwitchOutage)
	fmt.Printf("  pre-copy rounds:         %d (%d pages sent in total)\n", len(res.PrecopyRounds), res.PagesSent)
	fmt.Printf("  stop-and-copy downtime:  %v\n", res.Downtime())
	fmt.Printf("  bond back on VF:         %v\n", g.Bond.ActiveVF())
}
