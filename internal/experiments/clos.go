package experiments

import (
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
)

// This file takes the fabric axis past the single ToR: Fig. 30 drives
// incast through an oversubscribed leaf–spine Clos (where do drops land as
// fan-in grows, and when does the fluid fast-path bail out to packets?),
// and Fig. 31 measures what the fast-path buys — event counts for the same
// delivered bytes, ring workload, fast-path forced on vs off, up to 1024
// hosts. Both figures publish only drain-derived series (byte and event
// ledgers), never wall-clock, so they are byte-identical at any -parallel.

func init() {
	registerPoints("fig30", "Clos incast: goodput and p99 FCT vs fan-in at 2:1/4:1/8:1 oversubscription",
		closIncastPoints(), buildClosIncast)
	registerPoints("fig31", "Flow fast-path: simulation events vs host count, fast-path on vs off",
		closScalePoints(), buildClosScale)
}

var (
	closOversubRatios = []int{2, 4, 8}
	closIncastFans    = []int{2, 4, 8, 16}
	closScaleHosts    = []int{4, 16, 64, 256, 1024}
)

const (
	closIncastLeafHosts = 16                     // hosts per leaf; bounds the fan-in sweep
	closIncastSize      = 4 * units.MiB          // per-sender transfer
	closRingVMs         = 10                     // flows per host in the fig31 ring
	closRingWindow      = 50 * units.Millisecond // fig31 measurement window
	closIncastBound     = 120 * units.Second     // incast completion bound
)

// closIncastCell is one (oversubscription ratio, fan-in) incast measurement.
type closIncastCell struct {
	ratio, fan int
	goodput    units.BitRate  // aggregate delivered bytes over the makespan
	p99        units.Duration // p99 flow completion time
	drops      int64          // tail drops across all tiers
	demotions  int64          // fast-path fluid→packet transitions
	violations int64          // chaos audit failures (must stay 0)
}

func closIncastPoints() []Point {
	var pts []Point
	for _, ratio := range closOversubRatios {
		for _, fan := range closIncastFans {
			ratio, fan := ratio, fan
			pts = append(pts, Point{
				Label: fmt.Sprintf("%d:1x%dsend", ratio, fan),
				Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
					return runClosIncast(seed, reg, arena, ratio, fan)
				},
			})
		}
	}
	return pts
}

// runClosIncast aims `fan` senders — each on its own host behind leaf 1 — at
// one receiver behind leaf 0, every sender offering a full edge-rate
// transfer, through a fabric whose trunks are sized for ratio:1
// oversubscription. The receiver's edge downlink and the trunks both
// congest; the fast-path (auto mode) must demote the hot flows to packet
// level and the drops land in the tier ledgers.
func runClosIncast(seed uint64, reg *obs.Registry, arena *sim.Arena, ratio, fan int) closIncastCell {
	topo := cluster.OversubscribedTopology(2, 2, closIncastLeafHosts, float64(ratio))
	c, err := cluster.NewClos(cluster.ClosConfig{
		Topo: topo, Seed: seed, Obs: reg, Arena: arena, Fastpath: cluster.FastpathAuto,
	})
	if err != nil {
		panic(err)
	}
	receiver := 0 // leaf 0, host 0
	flows := make([]*cluster.ClosFlow, fan)
	for i := 0; i < fan; i++ {
		sender := closIncastLeafHosts + i // leaf 1, host i
		flows[i] = c.StartTransfer(sender, 0, receiver, 0, model.ClusterLinkRate, closIncastSize)
	}
	deadline := c.Eng.Now().Add(closIncastBound)
	for c.Eng.Now() < deadline {
		done := true
		for _, f := range flows {
			if !f.Completed() {
				done = false
				break
			}
		}
		if done {
			break
		}
		c.Run(10 * units.Millisecond)
	}

	cell := closIncastCell{ratio: ratio, fan: fan}
	var bytes units.Size
	var makespan units.Duration
	fcts := make([]units.Duration, 0, fan)
	for _, f := range flows {
		bytes += f.DeliveredBytes()
		fcts = append(fcts, f.FCT())
		if f.FCT() > makespan {
			makespan = f.FCT()
		}
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	cell.p99 = fcts[(len(fcts)*99+99)/100-1]
	if makespan > 0 {
		cell.goodput = units.BitRate(float64(bytes.Bits()) / makespan.Seconds())
	}
	cell.drops = c.TierDrops()
	cell.demotions = c.Demotions()

	vs := chaos.AuditClos(c)
	chaos.Record(reg, vs)
	cell.violations = int64(len(vs))
	return cell
}

func buildClosIncast(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig30",
		Title: "Clos incast: goodput and p99 FCT vs fan-in at 2:1/4:1/8:1 oversubscription",
		Description: "N senders behind leaf 1 each push a 4 MiB transfer at edge rate to one " +
			"receiver behind leaf 0 of a 2-leaf/2-spine Clos whose trunks are sized for R:1 " +
			"oversubscription. Aggregate goodput, p99 flow completion time, fabric tail drops " +
			"and fast-path demotions per (R, fan-in) cell.",
		PaperRef: []string{
			"the SR-IOV fabric extrapolation: edge line rate composes until the fabric oversubscribes",
			"incast saturates the receiver edge; oversubscription moves the loss into the trunks",
		},
	}
	goodput := f.AddSeries("goodput", "Gbps")
	p99 := f.AddSeries("p99_fct", "ms")
	drops := f.AddSeries("clos_drops", "pkts")
	demotions := f.AddSeries("fastpath_demotions", "")
	type key struct{ ratio, fan int }
	byCell := map[key]closIncastCell{}
	var violations int64
	for _, r := range results {
		cell := r.(closIncastCell)
		label := fmt.Sprintf("%d:1x%dsend", cell.ratio, cell.fan)
		goodput.Add(label, cell.goodput.Gbps())
		p99.Add(label, float64(cell.p99)/float64(units.Millisecond))
		drops.Add(label, float64(cell.drops))
		demotions.Add(label, float64(cell.demotions))
		byCell[key{cell.ratio, cell.fan}] = cell
		violations += cell.violations

		// The receiver's 1 GbE downlink caps every cell; a congested fabric
		// may deliver less but never more.
		f.CheckRange(label+" goodput below the edge cap", cell.goodput.Gbps(),
			0.1, model.ClusterLinkRate.Gbps()*1.01)
		if cell.fan >= 4 {
			f.CheckTrue(label+" incast demotes the hot flows", cell.demotions > 0,
				fmt.Sprintf("demotions=%d", cell.demotions))
			f.CheckTrue(label+" incast overruns a queue", cell.drops > 0,
				fmt.Sprintf("drops=%d", cell.drops))
		}
	}
	for _, ratio := range closOversubRatios {
		lo, hi := byCell[key{ratio, closIncastFans[0]}], byCell[key{ratio, closIncastFans[len(closIncastFans)-1]}]
		f.CheckTrue(fmt.Sprintf("%d:1 p99 FCT grows with fan-in", ratio), hi.p99 > lo.p99,
			fmt.Sprintf("p99@%d=%v p99@%d=%v", lo.fan, lo.p99, hi.fan, hi.p99))
	}
	f.CheckTrue("zero invariant violations across the sweep", violations == 0,
		fmt.Sprintf("violations=%d", violations))
	return f
}

// closRingCell is one (hosts, fast-path mode) ring measurement.
type closRingCell struct {
	hosts      int
	mode       cluster.FastpathMode
	delivered  units.Size // drain-total delivered bytes, the goodput ledger
	events     uint64     // engine events processed, start to drain
	drops      int64
	violations int64
}

func closScalePoints() []Point {
	var pts []Point
	for _, hosts := range closScaleHosts {
		for _, mode := range []cluster.FastpathMode{cluster.FastpathOn, cluster.FastpathOff} {
			hosts, mode := hosts, mode
			pts = append(pts, Point{
				Label: fmt.Sprintf("%dh-%s", hosts, mode),
				Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
					return runClosRing(seed, reg, arena, hosts, closRingVMs, mode)
				},
			})
		}
	}
	return pts
}

// closRingTopo picks a square-ish leaf–spine shape for a host count: enough
// leaves that the fabric axis is real, two spines, default 1:1 trunks. The
// fig31 ring crosses leaves only at leaf boundaries, so the fabric stays
// uncongested and the fast-path ledger must match the packet model exactly.
func closRingTopo(hosts int) cluster.Topology {
	leafs := 2
	for leafs*leafs < hosts {
		leafs *= 2
	}
	return cluster.Topology{Leafs: leafs, Spines: 2, HostsPerLeaf: (hosts + leafs - 1) / leafs}
}

// runClosRing drives the fig22 ring pattern (VM v on host h → VM v on host
// h+1) at 50% edge load across a Clos fabric, with the fast-path forced on
// or off, and ledgers delivered bytes and engine events through drain. Both
// modes must deliver byte-identical goodput; the event counts are the
// fast-path's payoff.
func runClosRing(seed uint64, reg *obs.Registry, arena *sim.Arena, hosts, vms int, mode cluster.FastpathMode) closRingCell {
	topo := closRingTopo(hosts)
	c, err := cluster.NewClos(cluster.ClosConfig{
		Topo: topo, Seed: seed, Obs: reg, Arena: arena, Fastpath: mode,
	})
	if err != nil {
		panic(err)
	}
	rate := model.ClusterLinkRate / 2 / units.BitRate(vms)
	flows := c.StartRing(vms, rate)
	c.Run(closRingWindow)

	vs := chaos.AuditClos(c) // stops, drains, audits conservation
	chaos.Record(reg, vs)

	cell := closRingCell{hosts: hosts, mode: mode, events: c.Eng.Processed()}
	for _, f := range flows {
		cell.delivered += f.DeliveredBytes()
	}
	cell.drops = c.TierDrops()
	cell.violations = int64(len(vs))
	return cell
}

func buildClosScale(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig31",
		Title: "Flow fast-path: simulation events vs host count, fast-path on vs off",
		Description: "Ring of cross-host flows (10 VMs/host at 50% edge load) over a leaf–spine " +
			"Clos, run to the same simulated horizon with the flow-level fast-path forced on and " +
			"off. Delivered bytes must match exactly; the event counts are the cost of packet-level " +
			"fidelity the fluid model avoids. Series are drain-total ledgers, never wall-clock, so " +
			"the figure is byte-identical at any parallelism.",
		PaperRef: []string{
			"scaling the evaluation fabric beyond one ToR needs sub-packet simulation cost",
			"steady-state flows carry no per-packet information; fluid rates suffice until queues build",
		},
	}
	goodput := f.AddSeries("delivered", "MiB")
	events := f.AddSeries("events", "")
	type key struct {
		hosts int
		mode  cluster.FastpathMode
	}
	byCell := map[key]closRingCell{}
	var drops, violations int64
	for _, r := range results {
		cell := r.(closRingCell)
		label := fmt.Sprintf("%dh-%s", cell.hosts, cell.mode)
		goodput.Add(label, float64(cell.delivered)/float64(units.MiB))
		events.Add(label, float64(cell.events))
		byCell[key{cell.hosts, cell.mode}] = cell
		drops += cell.drops
		violations += cell.violations
	}
	for _, hosts := range closScaleHosts {
		on, off := byCell[key{hosts, cluster.FastpathOn}], byCell[key{hosts, cluster.FastpathOff}]
		f.CheckTrue(fmt.Sprintf("%dh fast-path preserves the byte ledger", hosts),
			on.delivered == off.delivered,
			fmt.Sprintf("on=%d off=%d", on.delivered, off.delivered))
		f.CheckTrue(fmt.Sprintf("%dh fast-path reduces events", hosts), on.events < off.events,
			fmt.Sprintf("on=%d off=%d", on.events, off.events))
		if hosts >= 256 {
			ratio := float64(off.events) / float64(on.events)
			f.CheckTrue(fmt.Sprintf("%dh fast-path wins ≥5x on events", hosts), ratio >= 5,
				fmt.Sprintf("off/on=%.1f", ratio))
		}
	}
	f.CheckTrue("uncongested ring never drops", drops == 0, fmt.Sprintf("drops=%d", drops))
	f.CheckTrue("zero invariant violations across the sweep", violations == 0,
		fmt.Sprintf("violations=%d", violations))
	return f
}

// ClosRingSpec builds a single-host-count fig31-style ring — the backing for
// `sriovsim -clos`. The spec's ID, labels, and series are independent of the
// fast-path mode and publish only drain-total ledgers, so a run with the
// fast-path forced on renders byte-identically to one with it forced off:
// that equality is the packet≡flow differential gate.
func ClosRingSpec(hosts, vms int, mode cluster.FastpathMode) Spec {
	id := fmt.Sprintf("clos-%dh", hosts)
	title := fmt.Sprintf("Clos ring: %d hosts x %d VMs over a leaf–spine fabric", hosts, vms)
	points := []Point{{
		Label: "ring",
		Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
			return runClosRing(seed, reg, arena, hosts, vms, mode)
		},
	}}
	build := func(results []any) *report.Figure {
		cell := results[0].(closRingCell)
		f := &report.Figure{
			ID:    id,
			Title: title,
			Description: "Ring of cross-host flows over a leaf–spine Clos at 50% edge load. " +
				"Series are drain-total ledgers — identical whichever fast-path mode ran them.",
		}
		f.AddSeries("delivered", "MiB").Add("ring", float64(cell.delivered)/float64(units.MiB))
		f.AddSeries("clos_drops", "pkts").Add("ring", float64(cell.drops))
		f.CheckTrue("uncongested ring never drops", cell.drops == 0,
			fmt.Sprintf("drops=%d", cell.drops))
		f.CheckTrue("zero invariant violations", cell.violations == 0,
			fmt.Sprintf("violations=%d", cell.violations))
		return f
	}
	return Spec{ID: id, Title: title, Points: points, Build: build}
}

// ClosSoakResult is one Clos-soak iteration's summary — the fabric leg of
// `sriovsim -soak`.
type ClosSoakResult struct {
	Seed       uint64
	Hosts      int
	Flows      int
	Flaps      int
	Demotions  int64
	Promotions int64
	Drops      int64
	Violations []chaos.Violation
}

// ClosSoak runs one randomized fabric iteration: a random leaf–spine shape,
// a random flow mix in auto fast-path mode, trunk flaps mid-run, then the
// full fabric audit (conservation across promote/demote, resequencer
// emptiness, drained queues, pool integrity). Deterministic per seed.
func ClosSoak(seed uint64) ClosSoakResult {
	reg := obs.NewRegistry()
	// Shape and flow mix come from the engine's named stream so the whole
	// iteration is a pure function of the seed; the Clos shares the engine.
	eng := sim.NewEngine(seed | 1)
	rng := eng.Stream("clos-soak")
	topo := cluster.Topology{
		Leafs:        2 + rng.Intn(3),
		Spines:       1 + rng.Intn(3),
		HostsPerLeaf: 2 + rng.Intn(3),
	}
	topo.TrunkLink.Rate = units.BitRate(1+rng.Intn(8)) * units.Gbps / 4
	c, err := cluster.NewClos(cluster.ClosConfig{
		Topo: topo, Seed: seed | 1, Obs: reg, Eng: eng, Fastpath: cluster.FastpathAuto,
	})
	if err != nil {
		panic(err)
	}
	hosts := topo.Hosts()
	nFlows := 4 + rng.Intn(12)
	for i := 0; i < nFlows; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		rate := units.BitRate(50+rng.Intn(950)) * units.Mbps
		if rng.Intn(2) == 0 {
			c.StartTransfer(src, i, dst, i, rate, units.Size(64+rng.Intn(2048))*units.KiB)
		} else {
			c.StartFlow(src, i, dst, i, rate)
		}
	}
	flaps := 1 + rng.Intn(3)
	for i := 0; i < flaps; i++ {
		leaf, spine := rng.Intn(topo.Leafs), rng.Intn(topo.Spines)
		c.Run(20 * units.Millisecond)
		c.SetTrunk(leaf, spine, false)
		c.Run(15 * units.Millisecond)
		c.SetTrunk(leaf, spine, true)
	}
	c.Run(30 * units.Millisecond)

	vs := chaos.AuditClos(c)
	chaos.Record(c.Obs, vs)
	return ClosSoakResult{
		Seed: seed, Hosts: hosts, Flows: nFlows, Flaps: flaps,
		Demotions: c.Demotions(), Promotions: c.Promotions(),
		Drops: c.TierDrops(), Violations: vs,
	}
}
