package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/migration"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vmm"
)

// This file reproduces the §6.7 migration timelines: Fig. 20 (an HVM guest
// on a PV NIC) and Fig. 21 (an HVM guest on SR-IOV with DNIS).

func init() {
	registerPoints("fig20", "Migrating an HVM running netperf with a PV network driver", wholePoint(Fig20), unwrapFigure)
	registerPoints("fig21", "Migrating an HVM running netperf with SR-IOV and DNIS", wholePoint(Fig21), unwrapFigure)
}

// timelineBucket is the goodput sampling interval of the timelines.
const timelineBucket = 100 * units.Millisecond

// timelineEnd is how long the timeline runs.
const timelineEnd = 16 * units.Second

// migrationRun holds one timeline's artifacts.
type migrationRun struct {
	series     *stats.Series // goodput bytes per bucket
	dom0Before float64
	result     *migration.Result
	bondBackVF bool
}

// runMigrationTimeline runs netperf against a guest on one 1 GbE port and
// migrates it at t = 4.5 s, recording a 100 ms-bucket goodput timeline.
func runMigrationTimeline(dnis bool) migrationRun {
	tb := core.NewTestbed(core.Config{
		Ports: 1, Opts: vmm.AllOptimizations,
		NetbackThreads: 2, GuestMemory: model.GuestMemory,
	})
	var g *core.Guest
	var err error
	if dnis {
		g, err = tb.AddBondedGuest("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.DefaultAIC())
	} else {
		g, err = tb.AddPVGuest("guest-1", vmm.HVM, vmm.Kernel2628, 0)
	}
	if err != nil {
		panic(err)
	}
	tb.StartUDP(g, model.LineRateUDP)

	run := migrationRun{series: stats.NewSeries(timelineBucket)}
	var lastBytes units.Size
	tick := sim.NewTicker(tb.Eng, timelineBucket, "timeline:sample", func(now units.Time) {
		cur := g.Recv.Stats.AppBytes
		run.series.Add(now-1, float64(cur-lastBytes)) // -1ns: land in the elapsed bucket
		lastBytes = cur
	})
	defer tick.Stop()

	// dom0 CPU over [1.0 s, 4.4 s), before migration begins.
	tb.Eng.RunUntil(units.Time(units.Second))
	tb.Meter.ResetWindow(tb.Eng.Now())
	tb.Eng.RunUntil(units.Time(4400 * units.Millisecond))
	preWindow := 3400 * units.Millisecond
	tb.HV.ChargeDom0Baseline(preWindow)
	run.dom0Before = tb.Meter.Utilization("dom0", tb.Eng.Now())

	// Launch the migration at 4.5 s.
	mgr := migration.NewManager(tb.HV, migration.DefaultConfig())
	tb.Eng.At(units.Time(model.MigrationStart), "experiment:migrate", func() {
		if dnis {
			err := mgr.MigrateDNIS(g.Dom, g.Bond, func() *drivers.VFDriver {
				// Hot add-on at the target: a fresh driver on another VF
				// ("the VF hardware in the target platform may or may not
				// be identical").
				vf, err := tb.ReattachVF(g, 0, 1, netstack.DefaultAIC())
				if err != nil {
					panic(err)
				}
				return vf
			}, func(r *migration.Result) { run.result = r })
			if err != nil {
				panic(err)
			}
		} else {
			if err := mgr.MigratePV(g.Dom, func(r *migration.Result) { run.result = r }); err != nil {
				panic(err)
			}
		}
	})
	tb.Eng.RunUntil(units.Time(timelineEnd))
	tb.StopAll()
	chaos.Record(tb.Obs, chaos.AuditTestbed(tb))
	if dnis && g.Bond != nil {
		run.bondBackVF = g.Bond.ActiveVF()
	}
	return run
}

// goodputMbpsAt reports the timeline's goodput in Mbps for the bucket
// containing t.
func goodputMbpsAt(s *stats.Series, t units.Duration) float64 {
	idx := int(int64(t) / int64(s.Width()))
	return s.Bucket(idx) * 8 / s.Width().Seconds() / 1e6
}

// fillTimeline renders a series at half-second resolution for the report.
func fillTimeline(f *report.Figure, s *stats.Series) {
	out := f.AddSeries("goodput", "Mbps")
	for t := units.Duration(0); t < timelineEnd; t += 500 * units.Millisecond {
		out.Add(fmt.Sprintf("%.1fs", t.Seconds()), goodputMbpsAt(s, t))
	}
}

// outageWindow finds the first run of at least two near-zero buckets at or
// after `from`, returning its start and end times.
func outageWindow(s *stats.Series, from units.Duration) (units.Duration, units.Duration) {
	width := s.Width()
	curStart := units.Duration(-1)
	for i := int(int64(from) / int64(width)); i < s.Len(); i++ {
		t := units.Duration(int64(i) * int64(width))
		zero := s.Bucket(i)*8/width.Seconds()/1e6 < 50 // <50 Mbps counts as down
		if zero && curStart < 0 {
			curStart = t
		}
		if !zero && curStart >= 0 {
			if t-curStart >= 2*width {
				return curStart, t
			}
			curStart = -1 // single-bucket dip: noise
		}
	}
	if curStart >= 0 {
		return curStart, timelineEnd
	}
	return 0, 0
}

// Fig20 is the PV-NIC migration baseline.
func Fig20() *report.Figure {
	f := &report.Figure{
		ID:    "fig20",
		Title: "Migration timeline: HVM guest with a PV network driver",
		Description: "netperf goodput sampled in 100 ms buckets; the migration starts " +
			"at t = 4.5 s; pre-copy keeps the service up until stop-and-copy.",
		PaperRef: []string{
			"service continues through pre-copy (dom0 busy copying packets throughout)",
			"service down from ≈10.4 s to ≈11.8 s (stop-and-copy)",
		},
	}
	run := runMigrationTimeline(false)
	fillTimeline(f, run.series)

	f.CheckTrue("migration completed", run.result != nil, "")
	if run.result == nil {
		return f
	}
	f.CheckRange("goodput before migration ≈957 Mbps", goodputMbpsAt(run.series, 3*units.Second), 900, 980)
	f.CheckTrue("dom0 busy before migration (PV copy)", run.dom0Before > 15,
		fmt.Sprintf("dom0=%.1f%%", run.dom0Before))
	downStart, downEnd := outageWindow(run.series, 5*units.Second)
	f.CheckRange("service-down start ≈10.4 s", downStart.Seconds(), 8.5, 12)
	f.CheckRange("downtime ≈1.4 s", (downEnd - downStart).Seconds(), 0.9, 2.2)
	f.CheckRange("goodput restored after migration", goodputMbpsAt(run.series, downEnd+units.Second), 900, 980)
	f.CheckRange("reported downtime matches timeline", run.result.Downtime().Seconds(), 0.9, 2.2)
	return f
}

// Fig21 is the SR-IOV + DNIS migration.
func Fig21() *report.Figure {
	f := &report.Figure{
		ID:    "fig21",
		Title: "Migration timeline: HVM guest with SR-IOV and DNIS",
		Description: "Before migration the guest runs on its VF (dom0 idle). At 4.5 s " +
			"the virtual hot-removal switches the bond to the PV NIC (≈0.6 s outage), " +
			"pre-copy proceeds on the PV NIC, and after stop-and-copy a VF is hot-added " +
			"back at the target.",
		PaperRef: []string{
			"SR-IOV eliminates dom0 CPU before migration; PV uses significant cycles",
			"an additional ≈0.6 s outage at the interface switch (t = 4.5 s)",
			"service down ≈10.3 s to ≈11.8 s, on par with the PV driver",
		},
	}
	run := runMigrationTimeline(true)
	fillTimeline(f, run.series)

	f.CheckTrue("migration completed", run.result != nil, "")
	if run.result == nil {
		return f
	}
	f.CheckRange("goodput before migration ≈957 Mbps", goodputMbpsAt(run.series, 3*units.Second), 900, 980)
	f.CheckTrue("dom0 idle before migration (SR-IOV)", run.dom0Before < 6,
		fmt.Sprintf("dom0=%.1f%%", run.dom0Before))
	// The DNIS switch outage right after 4.5 s.
	switchStart, switchEnd := outageWindow(run.series, 4400*units.Millisecond)
	f.CheckRange("switch outage begins ≈4.5 s", switchStart.Seconds(), 4.3, 5.0)
	f.CheckRange("switch outage ≈0.6 s", (switchEnd - switchStart).Seconds(), 0.4, 0.9)
	// Service resumes on the PV NIC during pre-copy.
	f.CheckRange("pre-copy service on PV NIC", goodputMbpsAt(run.series, 7*units.Second), 900, 980)
	// The real downtime later.
	downStart, downEnd := outageWindow(run.series, 8*units.Second)
	f.CheckRange("service-down start ≈10.3 s", downStart.Seconds(), 8.5, 12.5)
	f.CheckRange("downtime ≈1.5 s", (downEnd - downStart).Seconds(), 0.9, 2.2)
	f.CheckRange("goodput restored after migration", goodputMbpsAt(run.series, downEnd+units.Second), 900, 980)
	f.CheckTrue("bond back on a VF at the target", run.bondBackVF, "")
	f.CheckRange("switch outage recorded", run.result.SwitchOutage.Seconds(), 0.5, 0.7)
	return f
}
