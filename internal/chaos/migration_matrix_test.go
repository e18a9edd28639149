package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/migration"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Satellite: the fault-during-migration matrix. A fault (surprise removal
// of the destination VF, or a source-side mailbox drop window) lands in
// each migration phase — pre-copy, stop-and-copy, restore, hot-add — and
// every cell must terminate cleanly (complete, possibly degraded, or
// abort) with zero invariant violations. A clean reference run provides
// the phase timestamps.

const matrixHorizon = 30 * units.Second

// matrixRun builds the fig23-shaped rig (bonded guest on host 0, netperf
// peer streaming to it from host 1), starts the migration at the model
// time, optionally arms fault scenarios, and runs to the horizon.
func matrixRun(t *testing.T, scenarios []fault.Scenario) (*cluster.Cluster, *cluster.Migration) {
	t.Helper()
	c := cluster.New(cluster.Config{
		Hosts: 2, Seed: 42,
		Host: core.Config{Opts: vmm.AllOptimizations, NetbackThreads: 2,
			GuestMemory: model.GuestMemory / 4},
	})
	h0, h1 := c.Host(0), c.Host(1)
	vm, err := h0.Bed.AddBondedGuest("vm", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		t.Fatal(err)
	}
	h0.Connect(vm)
	peer, err := h1.Bed.AddSRIOVGuest("peer", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		t.Fatal(err)
	}
	h1.Connect(peer)
	if _, err := c.StartFlow(h1, peer, h0, vm, model.LineRateUDP/2); err != nil {
		t.Fatal(err)
	}

	inj := fault.NewInjector(c.Eng, nil)
	inj.Watch(h0.Bed.Ports[0], h0.Bed.PFs[0]) // port 0: migration source
	inj.Watch(h1.Bed.Ports[0], h1.Bed.PFs[0]) // port 1: migration target
	if err := chaos.Arm(inj, scenarios); err != nil {
		t.Fatal(err)
	}

	var mig *cluster.Migration
	c.Eng.At(units.Time(model.MigrationStart), "test:migrate", func() {
		m, err := c.MigrateDNIS(cluster.MigrationSpec{
			Src: h0, Guest: vm, Dst: h1, DstPort: 0, DstVF: 2,
			Policy: netstack.FixedITR(2000),
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		mig = m
	})
	c.Eng.RunUntil(units.Time(matrixHorizon))
	c.StopAll()
	return c, mig
}

func TestFaultDuringMigrationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("migration matrix is long in simulated time")
	}

	// Reference run: no faults. Its result anchors the phase times every
	// fault cell reuses (same seed, so timing matches until the fault
	// perturbs it).
	c, ref := matrixRun(t, nil)
	if ref == nil || ref.Result == nil {
		t.Fatal("reference migration did not terminate")
	}
	if ref.Result.Err != nil {
		t.Fatalf("reference migration failed: %v", ref.Result.Err)
	}
	if vs := chaos.AuditCluster(c, []*cluster.Migration{ref}); len(vs) != 0 {
		t.Fatalf("reference run violated invariants: %v", vs)
	}
	r := ref.Result
	if r.HotAddDone == 0 || r.HotAddDone >= units.Time(matrixHorizon-2*units.Second) {
		t.Fatalf("reference hot-add at %v leaves no room in the horizon", r.HotAddDone)
	}

	phases := []struct {
		name string
		at   units.Time
	}{
		{"pre-copy", r.Start.Add(r.DowntimeStart.Sub(r.Start) / 2)},
		{"stop-and-copy", r.DowntimeStart.Add(r.DowntimeEnd.Sub(r.DowntimeStart) / 2)},
		{"restore", r.DowntimeEnd.Add(-5 * units.Millisecond)},
		{"hot-add", r.DowntimeEnd.Add(units.Microsecond)},
	}
	faults := []struct {
		name string
		mk   func(at units.Time) fault.Scenario
	}{
		{"vf-remove-dst", func(at units.Time) fault.Scenario {
			// Yank the destination VF the hot add-on will want (port index
			// 1 in the injector's watch order, VF 2 = DstVF).
			return fault.Scenario{At: at, Kind: fault.SurpriseRemoveVF, Port: 1, VF: 2,
				Duration: units.Second}
		}},
		{"mbox-drop-src", func(at units.Time) fault.Scenario {
			return fault.Scenario{At: at, Kind: fault.MailboxDrop, Port: 0,
				Duration: 3 * units.Millisecond}
		}},
	}

	for _, ph := range phases {
		for _, fc := range faults {
			t.Run(fc.name+"@"+ph.name, func(t *testing.T) {
				c, mig := matrixRun(t, []fault.Scenario{fc.mk(ph.at)})
				if mig == nil || mig.Result == nil {
					t.Fatal("migration neither completed nor aborted")
				}
				assertCleanTerminal(t, c, mig)
				if vs := chaos.AuditCluster(c, []*cluster.Migration{mig}); len(vs) != 0 {
					t.Fatalf("invariants violated: %v", vs)
				}
			})
		}
	}

	// Two correlated presets ride the same matrix: a link flap on the
	// migration-carrying uplink mid-pre-copy (chunks must survive on
	// retransmissions), and the destination VF vanishing mid-pre-copy but
	// returning in reset before the hot add-on.
	t.Run("link-flap@pre-copy", func(t *testing.T) {
		c, mig := matrixRun(t, linkFlapDuringMigration(r.Start, 0))
		if mig == nil || mig.Result == nil {
			t.Fatal("migration neither completed nor aborted")
		}
		assertCleanTerminal(t, c, mig)
		if mig.Result.Err == nil && c.Obs.Get("cluster.migration.retries") == 0 {
			t.Error("a flap on the migration uplink should cost at least one chunk retransmission")
		}
		if vs := chaos.AuditCluster(c, []*cluster.Migration{mig}); len(vs) != 0 {
			t.Fatalf("invariants violated: %v", vs)
		}
	})
	t.Run("vf-remove@mid-pre-copy-returns", func(t *testing.T) {
		c, mig := matrixRun(t, surpriseRemoveMidPrecopy(r.Start, 1, 2, 500*units.Millisecond))
		if mig == nil || mig.Result == nil {
			t.Fatal("migration neither completed nor aborted")
		}
		assertCleanTerminal(t, c, mig)
		if vs := chaos.AuditCluster(c, []*cluster.Migration{mig}); len(vs) != 0 {
			t.Fatalf("invariants violated: %v", vs)
		}
	})
}

// assertCleanTerminal checks the abort-or-complete contract: a completed
// migration restored a live target guest (possibly PV-only, if the hot
// add-on found its VF gone); an aborted one left a coherent error.
func assertCleanTerminal(t *testing.T, c *cluster.Cluster, mig *cluster.Migration) {
	t.Helper()
	res := mig.Result
	if res.Err != nil {
		t.Logf("clean abort: %v", res.Err)
		return
	}
	if mig.Target == nil {
		t.Fatal("completed migration has no target guest")
	}
	if res.Downtime() <= 0 {
		t.Fatalf("completed migration downtime = %v", res.Downtime())
	}
	degraded := c.Obs.Counter("cluster.migration.hot_add_failures").Value()
	if mig.Target.Bond == nil && degraded == 0 {
		t.Fatal("target has no bond but no degraded hot-add was recorded")
	}
	t.Log(summary(res, degraded))
}

func summary(r *migration.Result, degraded int64) string {
	return fmt.Sprintf("completed: downtime=%v total=%v hot_add_failures=%d",
		r.Downtime(), r.TotalDuration(), degraded)
}

// linkFlapDuringMigration flaps a link mid-pre-copy, so migration chunks
// are lost on the wire and must survive on the channel's retransmissions.
func linkFlapDuringMigration(migrationStart units.Time, port int) []fault.Scenario {
	return []fault.Scenario{{
		At: migrationStart.Add(500 * units.Millisecond), Kind: fault.LinkFlap,
		Port: port, Duration: 200 * units.Millisecond,
	}}
}

// surpriseRemoveMidPrecopy yanks the destination-side VF while the source
// is still pre-copying, so the hot add-on at the end finds it missing or
// freshly returned in reset — the migration must complete (possibly
// degraded to PV-only) either way.
func surpriseRemoveMidPrecopy(migrationStart units.Time, port, vf int, gone units.Duration) []fault.Scenario {
	return []fault.Scenario{{
		At: migrationStart.Add(300 * units.Millisecond), Kind: fault.SurpriseRemoveVF,
		Port: port, VF: vf, Duration: gone,
	}}
}
