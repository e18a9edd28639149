package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// This file extrapolates the paper's single-server results across the
// machine boundary: Fig. 22 sweeps a cluster of SR-IOV hosts behind a ToR
// switch (does aggregate throughput scale with hosts while dom0 stays
// idle?), and Fig. 23 measures inter-host DNIS live migration while the
// fabric links carry increasing foreground load (how do total time and
// downtime degrade when pre-copy contends for the wire?).

func init() {
	registerPoints("fig22", "Cluster scale-out: aggregate throughput vs hosts × VMs behind a ToR switch",
		clusterScalePoints(defaultScaleHosts, cluster.LinkConfig{}), buildClusterScale("fig22"))
	registerPoints("fig23", "Inter-host DNIS migration under fabric link load",
		migrationLoadPoints(cluster.LinkConfig{}), buildMigrationLoad)
}

var (
	defaultScaleHosts = []int{2, 4}
	scaleVMs          = []int{2, 4, 6}
	migrationLoads    = []int{0, 30, 60} // % of line rate of background traffic
)

// ClusterScaleSpec builds a fig22-style sweep for a custom host count and
// link shape — the backing for `sriovsim -hosts/-links`. The spec
// decomposes into one point per VMs-per-host cell like the registered
// figure, so the runner parallelizes and reproduces it identically.
func ClusterScaleSpec(hosts int, link cluster.LinkConfig) Spec {
	id := fmt.Sprintf("cluster-%dh", hosts)
	return Spec{
		ID:     id,
		Title:  fmt.Sprintf("Cluster scale-out: %d hosts behind a ToR switch", hosts),
		Points: clusterScalePoints([]int{hosts}, link),
		Build:  buildClusterScale(id),
	}
}

// clusterCell is one (hosts, VMs-per-host) measurement.
type clusterCell struct {
	hosts, vms int
	goodput    units.BitRate // aggregate across all hosts
	dom0       float64       // mean per-host dom0 CPU %
	drops      int64         // fabric tail drops
}

func clusterScalePoints(hostCounts []int, link cluster.LinkConfig) []Point {
	var pts []Point
	for _, hosts := range hostCounts {
		for _, vms := range scaleVMs {
			hosts, vms := hosts, vms
			pts = append(pts, Point{
				Label: fmt.Sprintf("%dhx%dvm", hosts, vms),
				Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
					return runClusterScale(seed, reg, arena, hosts, vms, link)
				},
			})
		}
	}
	return pts
}

// runClusterScale builds `hosts` single-port SR-IOV hosts behind the ToR,
// `vms` guests each, and drives a ring of cross-host UDP streams: VM j on
// host i sends to VM j on host i+1, each at LineRateUDP/vms — so every
// uplink and every downlink carries exactly one host's worth of line-rate
// traffic and the fabric is provably non-blocking for the pattern.
func runClusterScale(seed uint64, reg *obs.Registry, arena *sim.Arena, hosts, vms int, link cluster.LinkConfig) clusterCell {
	c := cluster.New(cluster.Config{
		Hosts: hosts, Seed: seed, Obs: reg, Link: link, Arena: arena,
		Host: core.Config{Opts: vmm.AllOptimizations, NetbackThreads: 2},
	})
	guests := make([][]*core.Guest, hosts)
	for i := 0; i < hosts; i++ {
		for j := 0; j < vms; j++ {
			g, err := c.Host(i).Bed.AddSRIOVGuest(fmt.Sprintf("h%d-vm%d", i, j),
				vmm.HVM, vmm.Kernel2628, 0, j, netstack.FixedITR(2000))
			if err != nil {
				panic(err)
			}
			c.Host(i).Connect(g)
			guests[i] = append(guests[i], g)
		}
	}
	perVM := model.LineRateUDP / units.BitRate(vms)
	for i := 0; i < hosts; i++ {
		next := (i + 1) % hosts
		for j := 0; j < vms; j++ {
			if _, err := c.StartFlow(c.Host(i), guests[i][j], c.Host(next), guests[next][j], perVM); err != nil {
				panic(err)
			}
		}
	}
	ms := c.Measure(warmup, window)
	c.StopAll()
	chaos.Record(reg, chaos.AuditCluster(c, nil))

	cell := clusterCell{hosts: hosts, vms: vms, drops: c.FabricDrops()}
	for _, m := range ms {
		cell.goodput += core.AggregateGoodput(m.Results)
		cell.dom0 += m.Util.Dom0 / float64(hosts)
	}
	return cell
}

func buildClusterScale(id string) func([]any) *report.Figure {
	return func(results []any) *report.Figure {
		f := &report.Figure{
			ID:    id,
			Title: "Cluster scale-out: aggregate throughput vs hosts × VMs",
			Description: "Ring of cross-host UDP streams (VM j on host i → VM j on host i+1) " +
				"through a ToR switch with 1 GbE links; aggregate goodput, mean per-host CPU " +
				"and fabric tail drops per (hosts × VMs/host) cell.",
			PaperRef: []string{
				"SR-IOV's per-host results compose across a non-blocking fabric",
				"aggregate throughput scales linearly with host count; dom0 stays idle",
			},
		}
		goodput := f.AddSeries("aggregate_goodput", "Gbps")
		dom0 := f.AddSeries("dom0_cpu", "%")
		drops := f.AddSeries("fabric_drops", "pkts")
		byCell := map[[2]int]clusterCell{}
		var totalDrops int64
		for _, r := range results {
			cell := r.(clusterCell)
			label := fmt.Sprintf("%dhx%dvm", cell.hosts, cell.vms)
			goodput.Add(label, cell.goodput.Gbps())
			dom0.Add(label, cell.dom0)
			drops.Add(label, float64(cell.drops))
			byCell[[2]int{cell.hosts, cell.vms}] = cell
			totalDrops += cell.drops

			want := float64(cell.hosts) * model.LineRateUDP.Gbps()
			f.CheckRange(fmt.Sprintf("%s aggregate ≈ %d × line rate", label, cell.hosts),
				cell.goodput.Gbps(), want*0.85, want*1.05)
			f.CheckTrue(fmt.Sprintf("%s dom0 idle (SR-IOV datapath)", label), cell.dom0 < 10,
				fmt.Sprintf("dom0=%.1f%%", cell.dom0))
		}
		// Linear scaling: every VMs-per-host column must double from the
		// smallest to the largest host count present.
		minH, maxH := results[0].(clusterCell).hosts, results[0].(clusterCell).hosts
		for _, r := range results {
			h := r.(clusterCell).hosts
			if h < minH {
				minH = h
			}
			if h > maxH {
				maxH = h
			}
		}
		if maxH > minH {
			for _, vms := range scaleVMs {
				lo, okLo := byCell[[2]int{minH, vms}]
				hi, okHi := byCell[[2]int{maxH, vms}]
				if !okLo || !okHi {
					continue
				}
				want := float64(maxH) / float64(minH)
				f.CheckRange(fmt.Sprintf("%dvm column scales ×%d from %dh to %dh", vms, maxH/minH, minH, maxH),
					float64(hi.goodput)/float64(lo.goodput), want*0.9, want*1.1)
			}
		}
		f.CheckTrue("ring traffic never overruns the fabric", totalDrops == 0,
			fmt.Sprintf("drops=%d", totalDrops))
		return f
	}
}

// migrationLoadCell is one (background load) migration measurement.
type migrationLoadCell struct {
	load    int
	res     *migration.Result
	drops   int64
	rxBytes int64
	memory  int64 // bytes of guest memory migrated at least once
}

func migrationLoadPoints(link cluster.LinkConfig) []Point {
	var pts []Point
	for _, load := range migrationLoads {
		load := load
		pts = append(pts, Point{
			Label: fmt.Sprintf("load=%d%%", load),
			Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
				return runMigrationUnderLoad(seed, reg, arena, load, link)
			},
		})
	}
	return pts
}

// runMigrationUnderLoad puts a bonded DNIS guest on host 0, a netperf peer
// streaming to it from host 1, and (for load > 0) a background host-0 →
// host-1 stream at `load` percent of line rate — sharing host 0's uplink
// with the migration's pre-copy chunks. At t = 4.5 s the guest live-migrates
// to host 1.
func runMigrationUnderLoad(seed uint64, reg *obs.Registry, arena *sim.Arena, load int, link cluster.LinkConfig) migrationLoadCell {
	c := cluster.New(cluster.Config{
		Hosts: 2, Seed: seed, Obs: reg, Link: link, Arena: arena,
		Host: core.Config{Opts: vmm.AllOptimizations, NetbackThreads: 2,
			GuestMemory: model.GuestMemory / 4},
	})
	h0, h1 := c.Host(0), c.Host(1)
	vm, err := h0.Bed.AddBondedGuest("vm", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		panic(err)
	}
	h0.Connect(vm)
	peer, err := h1.Bed.AddSRIOVGuest("peer", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		panic(err)
	}
	h1.Connect(peer)
	if _, err := c.StartFlow(h1, peer, h0, vm, model.LineRateUDP/2); err != nil {
		panic(err)
	}
	if load > 0 {
		bgSrc, err := h0.Bed.AddSRIOVGuest("bg-src", vmm.HVM, vmm.Kernel2628, 0, 1, netstack.FixedITR(2000))
		if err != nil {
			panic(err)
		}
		h0.Connect(bgSrc)
		bgDst, err := h1.Bed.AddSRIOVGuest("bg-dst", vmm.HVM, vmm.Kernel2628, 0, 1, netstack.FixedITR(2000))
		if err != nil {
			panic(err)
		}
		h1.Connect(bgDst)
		rate := model.ClusterLinkRate * units.BitRate(load) / 100
		if _, err := c.StartFlow(h0, bgSrc, h1, bgDst, rate); err != nil {
			panic(err)
		}
	}

	cell := migrationLoadCell{load: load, memory: int64(vm.Dom.Memory.Pages()) << 12}
	var mig *cluster.Migration
	c.Eng.At(units.Time(model.MigrationStart), "experiment:migrate", func() {
		m, err := c.MigrateDNIS(cluster.MigrationSpec{
			Src: h0, Guest: vm, Dst: h1, DstPort: 0, DstVF: 2,
			Policy: netstack.FixedITR(2000),
		}, func(r *migration.Result) { cell.res = r })
		if err != nil {
			panic(err)
		}
		mig = m
	})
	c.Eng.RunUntil(units.Time(40 * units.Second))
	c.StopAll()
	chaos.Record(reg, chaos.AuditCluster(c, []*cluster.Migration{mig}))

	if cell.res != nil && cell.res.Err == nil {
		// Feed the suite's merged registry: downtime reaches -metrics-out
		// and must merge deterministically across runner parallelism.
		reg.Counter("cluster.migration.downtime_us").Add(int64(cell.res.Downtime() / units.Microsecond))
	}
	cell.drops = c.FabricDrops()
	cell.rxBytes = reg.Counter("cluster.migration.rx_bytes").Value()
	return cell
}

func buildMigrationLoad(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig23",
		Title: "Inter-host DNIS migration vs fabric link load",
		Description: "A bonded SR-IOV guest live-migrates host 0 → host 1 over the ToR " +
			"while a background stream loads the shared uplink; pre-copy chunks contend " +
			"with it frame by frame. Total migration time and downtime per load level.",
		PaperRef: []string{
			"DNIS makes SR-IOV guests migratable; the transfer itself rides the same wire",
			"pre-copy stretches under competing traffic; downtime stays bounded",
		},
	}
	downtime := f.AddSeries("downtime", "s")
	total := f.AddSeries("total", "s")
	drops := f.AddSeries("fabric_drops", "pkts")
	totals := map[int]float64{}
	for _, r := range results {
		cell := r.(migrationLoadCell)
		label := fmt.Sprintf("load=%d%%", cell.load)
		ok := cell.res != nil && cell.res.Err == nil
		f.CheckTrue(label+" migration completed", ok, "")
		if !ok {
			downtime.Add(label, 0)
			total.Add(label, 0)
			drops.Add(label, float64(cell.drops))
			continue
		}
		d := cell.res.Downtime().Seconds()
		tt := cell.res.TotalDuration().Seconds()
		downtime.Add(label, d)
		total.Add(label, tt)
		drops.Add(label, float64(cell.drops))
		totals[cell.load] = tt
		f.CheckRange(label+" downtime bounded", d, 1.0, 5.0)
		f.CheckTrue(label+" full memory crossed the fabric", cell.rxBytes >= cell.memory,
			fmt.Sprintf("rx=%d mem=%d", cell.rxBytes, cell.memory))
	}
	if t0, ok0 := totals[0]; ok0 {
		if t60, ok60 := totals[60]; ok60 {
			f.CheckTrue("pre-copy stretches under link load", t60 > t0,
				fmt.Sprintf("total@0%%=%.2fs total@60%%=%.2fs", t0, t60))
		}
	}
	return f
}
