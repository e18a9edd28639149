package chaos_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/vmm"
)

// TestAllBackendsAuditClean drives line-rate traffic through every datapath
// backend at once — one guest per kind on its own port — and requires the
// generalized conservation audit to come back clean. This is the invariant
// the fig26/fig27 family leans on: whatever a backend drops, it must count.
func TestAllBackendsAuditClean(t *testing.T) {
	kinds := []string{"vf", "pv", "vmdq", "vhost", "ovs", "swpass"}
	tb := core.NewTestbed(core.Config{
		Seed: 7, Ports: len(kinds), Opts: vmm.AllOptimizations,
		NetbackThreads: 2, VMDqThreads: 2,
	})
	for i, kind := range kinds {
		g, err := tb.AddBackendGuest(kind, "g-"+kind, vmm.HVM, vmm.Kernel2628, i, 0, nil)
		if err != nil {
			t.Fatalf("AddBackendGuest(%s): %v", kind, err)
		}
		tb.StartUDP(g, model.LineRateUDP)
	}
	if got := len(tb.Datapaths()); got != 6 {
		// netback, vmdq, vmdq-fallback, vhost, ovs, swpass
		t.Fatalf("Datapaths() lists %d backends, want 6", got)
	}
	tb.Eng.RunUntil(units.Time(units.Second))
	tb.StopAll()
	if vs := chaos.AuditTestbed(tb); len(vs) != 0 {
		t.Fatalf("backend sweep violated invariants: %v", vs)
	}
	// Every software backend must actually have carried traffic (the wire
	// tap works) — a backend that saw nothing proves the test is vacuous.
	for _, dp := range tb.Datapaths() {
		if dp == tb.VMDq.Fallback() {
			continue // all VMDq guests here own queues; fallback idle
		}
		if dp.Stats().Received == 0 {
			t.Errorf("backend %s carried no traffic", dp.Kind())
		}
	}
}

// TestTamperedDatapathDetected proves the generalized walk actually audits
// the new backends, not just netback and VMDq.
func TestTamperedDatapathDetected(t *testing.T) {
	tb := core.NewTestbed(core.Config{Seed: 7, Ports: 1, Opts: vmm.AllOptimizations})
	if _, err := tb.AddVhostGuest("g", vmm.HVM, vmm.Kernel2628, 0); err != nil {
		t.Fatal(err)
	}
	tb.Vhost.Received += 3
	vs := chaos.CheckTestbed(tb)
	if !hasViolation(vs, "backend-conservation") {
		t.Fatalf("tampered vhost counters not detected: %v", violationNames(vs))
	}
}
