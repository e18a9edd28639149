package experiments

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// TestSweepCellAuditReachesEveryClaimant pins that a memoized scale-sweep
// cell's invariant audit lands in the registry of every figure point that
// claims the cell — the first claimant and the memo hits alike — rather
// than in the cell's private testbed registry, which nobody reads. The
// cell is pre-seeded with one violation so the test needs no simulation.
func TestSweepCellAuditReachesEveryClaimant(t *testing.T) {
	k := sweepKey{pv: true, typ: vmm.PVM, n: -1}
	cell := &sweepCell{audit: []chaos.Violation{{Invariant: "ring-conservation", Where: "test", Detail: "seeded"}}}
	cell.once.Do(func() {})
	sweepMu.Lock()
	sweepMemo[k] = cell
	sweepMu.Unlock()
	defer func() {
		sweepMu.Lock()
		delete(sweepMemo, k)
		sweepMu.Unlock()
	}()

	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		sweepPoint(k, reg, sim.NewArena())
		if got := reg.Counter("chaos.invariant_violations").Value(); got != 1 {
			t.Fatalf("claimant %d: chaos.invariant_violations = %d, want 1", i, got)
		}
		if got := reg.Counter("chaos.violations.ring-conservation").Value(); got != 1 {
			t.Fatalf("claimant %d: chaos.violations.ring-conservation = %d, want 1", i, got)
		}
	}
}
