// Control plane: a declarative fleet scenario driven through the public
// API. Where examples/cluster wires hosts and migrations by hand, this
// hands the whole problem to the VF management control plane: a JSON
// scenario names the fleet shape, a placement policy, the VMs and a fault
// schedule; the reconciler places every VM on a virtual function, rebalances
// under the policy, and heals through the faults — re-bonding to spare VFs,
// re-slotting off dead ports, or DNIS-migrating to another host — while an
// audit keeps its books honest (no orphaned VFs, no VM placed twice,
// reconcile terminates).
//
// The same scenario and seed reproduce this report byte for byte — in
// process here, or as JSON from `sriovsim -scenario scenario.json` (see
// README.md).
package main

import (
	_ "embed"
	"fmt"

	sriov "repro"
)

//go:embed scenario.json
var scenarioJSON []byte

func main() {
	sc, err := sriov.DecodeCtlScenario(scenarioJSON)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scenario %q: %d hosts × %d ports × %d VFs, policy %s, %d VMs, %d faults\n",
		sc.Name, sc.Hosts, sc.PortsPerHost, sc.VFsPerPort, sc.Policy, len(sc.VMs), len(sc.Faults))

	// Seed 0 keeps the scenario's own — the reproducible default.
	rep, err := sriov.RunCtlScenario(sc, 0)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nreconciled: churn=%d heals=%d migrations=%d (failed %d)\n",
		rep.PlacementChurn, rep.Heals, rep.Migrations, rep.FailedMigrations)
	fmt.Printf("served:     %d Mbps goodput, availability %.3f, p99 downtime %d µs\n",
		rep.GoodputMbps, rep.Availability, rep.DowntimeP99Us)
	for _, p := range rep.Placements {
		path := "pv standby"
		if p.OnVF {
			path = "vf"
		}
		fmt.Printf("  %-5s host %d (gen %d, %s, %d pkts)\n", p.VM, p.Host, p.Gen, path, p.Delivered)
	}
	if len(rep.Violations) == 0 {
		fmt.Println("audit:      clean — no orphaned VFs, no double placements, reconcile terminated")
	} else {
		fmt.Printf("audit:      %d violations: %v\n", len(rep.Violations), rep.Violations)
	}
}
