package main

import (
	"fmt"
	"io"

	sriov "repro"
)

// runSoak loops n chaos-soak iterations over consecutive seeds, printing one
// line per seed, and fails if any iteration leaves an invariant violated or
// a fault unrecovered. This is the CI soak job's entry point: each iteration
// is a fresh randomized fault storm (plus the correlated FLR-during-retry
// preset) followed by the full system-wide invariant audit, then a
// control-plane soak — a healing reconciler under a mixed fault schedule
// with the controller-state audit (no orphaned VFs, no double placements,
// reconcile termination) layered on top — and finally a Clos fabric soak: a
// random leaf–spine shape and flow mix in auto fast-path mode with trunk
// flaps, audited for packet conservation across promote/demote transitions.
func runSoak(base uint64, n int, quiet bool, stdout, stderr io.Writer) int {
	bad := 0
	for i := 0; i < n; i++ {
		seed := base + uint64(i)
		r := sriov.ChaosSoak(seed)
		ok := len(r.Violations) == 0 && r.Unrecovered == 0
		if !ok {
			bad++
		}
		if !quiet || !ok {
			status := "ok"
			if !ok {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "soak seed=%-6d planned=%-3d injected=%-3d recovered=%-3d unrecovered=%d avail=%.3f violations=%d  %s\n",
				r.Seed, r.Planned, r.Injected, r.Recoveries, r.Unrecovered, r.Availability, len(r.Violations), status)
		}
		for _, v := range r.Violations {
			fmt.Fprintf(stderr, "  seed %d: %s\n", r.Seed, v)
		}

		c := sriov.CtlSoak(seed)
		cok := len(c.Violations) == 0 && c.Unrecovered == 0
		if !cok {
			bad++
		}
		if !quiet || !cok {
			status := "ok"
			if !cok {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "ctl  seed=%-6d churn=%-3d heals=%-3d unrecovered=%d avail=%.3f violations=%d  %s\n",
				c.Seed, c.Churn, c.Heals, c.Unrecovered, c.Availability, len(c.Violations), status)
		}
		for _, v := range c.Violations {
			fmt.Fprintf(stderr, "  ctl seed %d: %s\n", c.Seed, v)
		}

		f := sriov.ClosSoak(seed)
		fok := len(f.Violations) == 0
		if !fok {
			bad++
		}
		if !quiet || !fok {
			status := "ok"
			if !fok {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "clos seed=%-6d hosts=%-4d flows=%-3d flaps=%-2d demote=%-4d promote=%-4d drops=%-6d violations=%d  %s\n",
				f.Seed, f.Hosts, f.Flows, f.Flaps, f.Demotions, f.Promotions, f.Drops, len(f.Violations), status)
		}
		for _, v := range f.Violations {
			fmt.Fprintf(stderr, "  clos seed %d: %s\n", f.Seed, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "soak: %d/%d iterations failed\n", bad, 3*n)
		return 1
	}
	fmt.Fprintf(stdout, "soak: %d iterations clean (seeds %d..%d, chaos + ctlplane + clos)\n", n, base, base+uint64(n)-1)
	return 0
}
