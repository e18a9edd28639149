package experiments

import (
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// This file is the NFV-benchmark family: the paper's SR-IOV-vs-PV question
// re-asked against modern software datapaths. fig26 sweeps packet size ×
// backend under a unidirectional line-rate UDP offer (throughput, dom0 CPU,
// loss); fig27 runs request/response and 2–3-stage service chains per
// backend (end-to-end latency percentiles, loss). Every point runs on one
// backend picked by name through core.AddBackendGuest — the refactor the
// Datapath interface exists for.

func init() {
	registerPoints("fig26", "NFV packet-size sweep across datapath backends", fig26Points(nfvBackends), buildFig26(nfvBackends))
	registerPoints("fig27", "NFV service-chain latency across datapath backends", fig27Points(nfvBackends), buildFig27(nfvBackends))
}

// NFVSpecs returns the fig26/fig27 specs restricted to the named backend
// kinds — the backing for `sriovsim -backend`. The specs keep the full
// figures' IDs and point labels, so every point gets the same PointSeed as
// in the complete sweep and a restricted run reproduces the exact numbers
// of the full one. Cross-backend shape checks only fire when both sides of
// the comparison are in the run.
func NFVSpecs(kinds []string) ([]Spec, error) {
	for _, k := range kinds {
		found := false
		for _, known := range nfvBackends {
			if k == known {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: unknown datapath backend %q (have %v)", k, nfvBackends)
		}
	}
	return []Spec{
		{ID: "fig26", Title: "NFV packet-size sweep across datapath backends", Points: fig26Points(kinds), Build: buildFig26(kinds)},
		{ID: "fig27", Title: "NFV service-chain latency across datapath backends", Points: fig27Points(kinds), Build: buildFig27(kinds)},
	}, nil
}

// NFVBackends lists the backend kinds the NFV figures sweep.
func NFVBackends() []string { return append([]string(nil), nfvBackends...) }

// nfvBackends is the head-to-head field. VMDq sits out: its queue-pair
// sharing story is fig19's, and the NFV literature it would stand in for is
// already covered by the other two hardware-assisted paths.
var nfvBackends = []string{"vf", "pv", "vhost", "ovs", "swpass"}

// nfvFrameSizes is the fig26 sweep (RFC 2544-style ladder, min to MTU).
var nfvFrameSizes = []units.Size{64, 256, 512, 1024, 1514}

// nfvPolicy is the ITR policy for "vf" points: the paper's adaptive
// coalescing, so the hardware path shows its best small-packet behavior.
func nfvPolicy(kind string) netstack.ITRPolicy {
	if kind == "vf" {
		return netstack.DefaultAIC()
	}
	return nil
}

// nfvWarm gives adaptive policies their sampling time on vf points.
func nfvWarm(kind string) units.Duration {
	if kind == "vf" {
		return aicWarm
	}
	return warmup
}

type nfvMeasure struct {
	tput       float64 // Mbps of goodput
	dom0       float64 // % of one thread
	loss       float64 // % of offered load not reaching the application
	violations int64   // chaos audit failures (must stay 0)
}

func fig26Label(kind string, frame units.Size) string {
	return fmt.Sprintf("%s/%dB", kind, int64(frame))
}

// fig26Points: one point per (backend, frame size) — a single guest offered
// line-rate UDP in fixed-size frames.
func fig26Points(kinds []string) []Point {
	var pts []Point
	for _, kind := range kinds {
		for _, frame := range nfvFrameSizes {
			kind, frame := kind, frame
			pts = append(pts, Point{Label: fig26Label(kind, frame), Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
				tb := core.NewTestbed(core.Config{Seed: seed, Ports: 1, Opts: vmm.AllOptimizations, Obs: reg, Arena: arena})
				g, err := tb.AddBackendGuest(kind, "guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, nfvPolicy(kind))
				if err != nil {
					panic(fmt.Sprintf("experiments: %v", err))
				}
				offered := model.LineRateUDP
				tb.StartUDPFramed(g, offered, frame)
				u, res := tb.Measure(nfvWarm(kind), window)
				tb.StopAll()
				vs := chaos.AuditTestbed(tb)
				chaos.Record(reg, vs)
				tput := res[g].Goodput.Mbps()
				loss := (1 - tput/offered.Mbps()) * 100
				if loss < 0 {
					loss = 0
				}
				return nfvMeasure{tput: tput, dom0: u.Dom0, loss: loss, violations: int64(len(vs))}
			}})
		}
	}
	return pts
}

// buildFig26 assembles the packet-size sweep: per backend, a throughput
// series and a dom0-CPU series over frame sizes.
func buildFig26(kinds []string) func(results []any) *report.Figure {
	return func(results []any) *report.Figure {
		return buildFig26From(kinds, results)
	}
}

func buildFig26From(kinds []string, results []any) *report.Figure {
	has := func(k string) bool {
		for _, kind := range kinds {
			if kind == k {
				return true
			}
		}
		return false
	}
	f := &report.Figure{
		ID:    "fig26",
		Title: "NFV packet-size sweep: throughput and dom0 CPU per datapath backend",
		Description: "One guest per backend offered line-rate UDP in fixed-size frames. " +
			"Interrupt-delivered backends overflow the socket burst at small frames; " +
			"the vhost poll thread rides its cycle budget instead (but pegs a dom0 " +
			"core at any load); VF and software passthrough keep dom0 off the data path.",
		PaperRef: []string{
			"software switch throughput collapses at small frames (NFV benchmarking)",
			"poll-mode datapaths trade a pegged core for small-packet throughput",
			"SR-IOV and passthrough keep dom0 CPU flat across the sweep",
		},
	}
	series := make(map[string]*report.Series, len(kinds)*3)
	for _, kind := range kinds {
		series[kind] = f.AddSeries(kind, "Mbps")
		series[kind+"-dom0"] = f.AddSeries(kind+"-dom0", "%")
		series[kind+"-loss"] = f.AddSeries(kind+"-loss", "%")
	}
	get := func(kind string, frame units.Size) nfvMeasure {
		for i, k := range kinds {
			if k != kind {
				continue
			}
			for j, fr := range nfvFrameSizes {
				if fr == frame {
					return results[i*len(nfvFrameSizes)+j].(nfvMeasure)
				}
			}
		}
		panic("experiments: fig26 lookup outside sweep")
	}
	for _, kind := range kinds {
		for _, frame := range nfvFrameSizes {
			m := get(kind, frame)
			label := fmt.Sprintf("%dB", int64(frame))
			series[kind].Add(label, m.tput)
			series[kind+"-dom0"].Add(label, m.dom0)
			series[kind+"-loss"].Add(label, m.loss)
		}
	}

	min, mtu := nfvFrameSizes[0], nfvFrameSizes[len(nfvFrameSizes)-1]
	for _, kind := range kinds {
		m := get(kind, mtu)
		f.CheckRange(kind+" reaches line rate at MTU frames", m.tput, 850, 960)
	}
	if has("vhost") {
		f.CheckRange("vhost pegs one dom0 core regardless of load", get("vhost", mtu).dom0, 95, 115)
	}
	if has("vhost") && has("pv") {
		f.CheckTrue("vhost poll mode wins the 64B frame war over netback",
			get("vhost", min).tput > 2*get("pv", min).tput,
			fmt.Sprintf("vhost=%.0f pv=%.0f Mbps", get("vhost", min).tput, get("pv", min).tput))
	}
	if has("pv") && has("swpass") {
		f.CheckTrue("interrupt-delivered software paths collapse at 64B",
			get("pv", min).loss > 50 && get("swpass", min).loss > 50,
			fmt.Sprintf("pv loss=%.0f%% swpass loss=%.0f%%", get("pv", min).loss, get("swpass", min).loss))
	}
	if has("vf") && has("swpass") {
		f.CheckTrue("vf and swpass keep dom0 off the data path",
			get("vf", mtu).dom0 < 10 && get("swpass", mtu).dom0 < 10,
			fmt.Sprintf("vf=%.1f%% swpass=%.1f%%", get("vf", mtu).dom0, get("swpass", mtu).dom0))
	}
	if has("pv") {
		f.CheckTrue("netback pays dom0 for the copy at small frames",
			get("pv", min).dom0 > 50, fmt.Sprintf("pv dom0=%.1f%%", get("pv", min).dom0))
	}
	var violations int64
	for _, r := range results {
		violations += r.(nfvMeasure).violations
	}
	f.CheckTrue("zero invariant violations across the sweep", violations == 0,
		fmt.Sprintf("violations=%d", violations))
	return f
}

// ---- fig27: service chains ----

// nfvScenarios: request/response plus 2- and 3-stage chains. stages counts
// the service VMs a request crosses after leaving the client; the client
// itself terminates the pingpong echo.
var nfvScenarios = []struct {
	name   string
	guests int  // total VMs on the testbed
	echo   bool // last hop returns to the client
}{
	{"pingpong", 2, true},
	{"chain2", 3, false},
	{"chain3", 4, false},
}

const (
	nfvMsgSize = units.Size(1500) // one full frame per hop
	// 251 µs ≈ 4 k req/s, deliberately co-prime with the 50 µs vhost poll
	// interval so request phase sweeps across the poll window instead of
	// aliasing onto tick boundaries (which would report zero wait).
	nfvReqInterval = 251 * units.Microsecond
	nfvDrain       = 20 * units.Millisecond // completion grace after stop
)

type chainMeasure struct {
	p50, p99   float64 // µs end-to-end
	loss       float64 // % of issued requests never completing
	violations int64   // chaos audit failures (must stay 0)
}

// fig27Points: one point per (backend, scenario).
func fig27Points(kinds []string) []Point {
	var pts []Point
	for _, kind := range kinds {
		for _, sc := range nfvScenarios {
			kind, sc := kind, sc
			label := kind + "/" + sc.name
			pts = append(pts, Point{Label: label, Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
				return runChain(seed, reg, arena, kind, sc.guests, sc.echo)
			}})
		}
	}
	return pts
}

// runChain builds the chain on one backend and measures end-to-end request
// latency over the standard window. Forwarding happens in the guests'
// delivery hooks: each service VM's receiver re-transmits to the next hop
// through whatever path its backend provides (VF internal switch for
// hardware, Inject for software datapaths).
func runChain(seed uint64, reg *obs.Registry, arena *sim.Arena, kind string, guests int, echo bool) any {
	tb := core.NewTestbed(core.Config{Seed: seed, Ports: 1, Opts: vmm.AllOptimizations, Obs: reg, Arena: arena})
	vms := make([]*core.Guest, guests)
	txs := make([]*guest.NetSender, guests)
	for i := range vms {
		var pol netstack.ITRPolicy
		if kind == "vf" {
			// Fixed high-rate moderation as in the fig13 inter-VM setup:
			// chains live or die on per-hop delivery delay.
			pol = netstack.FixedITR(8000)
		}
		g, err := tb.AddBackendGuest(kind, fmt.Sprintf("vm-%d", i), vmm.HVM, vmm.Kernel2628, 0, i, pol)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		vms[i] = g
		txs[i] = guest.NewNetSender(tb.HV, g.Dom)
	}

	// seq is the delivery route: issue lands on seq[1], each middle guest
	// forwards onward, the last entry completes. An echo route ends back
	// at the client.
	seq := append([]*core.Guest{}, vms...)
	if echo {
		seq = append(seq, vms[0])
	}

	send := func(from, to int, k int) {
		for j := 0; j < k; j++ {
			if g := seq[from]; g.VF != nil {
				g.VF.Transmit(txs[from%guests], seq[to].MAC, nfvMsgSize, model.FrameSize)
			} else {
				pkts := txs[from%guests].SendMessage(nfvMsgSize, model.FrameSize)
				g.Backend.Inject(nic.Batch{Src: g.MAC, Dst: seq[to].MAC, Count: pkts, Bytes: nfvMsgSize})
			}
		}
	}

	var (
		starts       []units.Time // FIFO of in-flight issue times
		head         int
		measureFrom  units.Time
		issuedWin    int64
		completedWin int64
		lats         []units.Duration
	)
	complete := func(k int) {
		now := tb.Eng.Now()
		for j := 0; j < k && head < len(starts); j++ {
			if s := starts[head]; measureFrom > 0 && s >= measureFrom {
				completedWin++
				lats = append(lats, now.Sub(s))
			}
			head++
		}
	}
	for idx := 1; idx < len(seq); idx++ {
		idx := idx
		if idx == len(seq)-1 {
			seq[idx].Recv.OnDeliver = complete
		} else {
			seq[idx].Recv.OnDeliver = func(k int) { send(idx, idx+1, k) }
		}
	}

	ticker := sim.NewTicker(tb.Eng, nfvReqInterval, "nfv:req", func(sim.Time) {
		starts = append(starts, tb.Eng.Now())
		if measureFrom > 0 && tb.Eng.Now() >= measureFrom {
			issuedWin++
		}
		send(0, 1, 1)
	})

	// Warm (flow caches install, rings settle), then measure one window.
	tb.Eng.RunUntil(tb.Eng.Now().Add(warmup))
	measureFrom = tb.Eng.Now()
	tb.Eng.RunUntil(tb.Eng.Now().Add(window))
	ticker.Stop()
	tb.Eng.RunUntil(tb.Eng.Now().Add(nfvDrain))
	tb.StopAll()
	vs := chaos.AuditTestbed(tb)
	chaos.Record(reg, vs)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return float64(lats[int(p*float64(len(lats)-1))]) / float64(units.Microsecond)
	}
	loss := 0.0
	if issuedWin > 0 {
		loss = float64(issuedWin-completedWin) / float64(issuedWin) * 100
	}
	if loss < 0 {
		loss = 0
	}
	return chainMeasure{p50: q(0.50), p99: q(0.99), loss: loss, violations: int64(len(vs))}
}

// buildFig27 assembles the service-chain figure: per scenario, p50/p99
// latency and loss series with one x-label per backend.
func buildFig27(kinds []string) func(results []any) *report.Figure {
	return func(results []any) *report.Figure {
		return buildFig27From(kinds, results)
	}
}

func buildFig27From(kinds []string, results []any) *report.Figure {
	has := func(k string) bool {
		for _, kind := range kinds {
			if kind == k {
				return true
			}
		}
		return false
	}
	f := &report.Figure{
		ID:    "fig27",
		Title: "NFV service-chain latency and loss per datapath backend",
		Description: "4000 req/s through request/response and 2–3-stage service chains. " +
			"Each hop pays the backend's delivery discipline: ITR wait on VF, poll " +
			"rounds on vhost, datapath threads on OVS, coalescing timers on " +
			"passthrough, netback copies on PV.",
		PaperRef: []string{
			"per-hop latency compounds down a service chain (NFV benchmarking)",
			"hardware switching beats dom0 copy paths on round-trip latency",
		},
	}
	get := func(kind, scenario string) chainMeasure {
		for i, k := range kinds {
			if k != kind {
				continue
			}
			for j, sc := range nfvScenarios {
				if sc.name == scenario {
					return results[i*len(nfvScenarios)+j].(chainMeasure)
				}
			}
		}
		panic("experiments: fig27 lookup outside sweep")
	}
	for _, sc := range nfvScenarios {
		p50 := f.AddSeries(sc.name+"-p50", "µs")
		p99 := f.AddSeries(sc.name+"-p99", "µs")
		lossS := f.AddSeries(sc.name+"-loss", "%")
		for _, kind := range kinds {
			m := get(kind, sc.name)
			p50.Add(kind, m.p50)
			p99.Add(kind, m.p99)
			lossS.Add(kind, m.loss)
		}
	}

	for _, kind := range kinds {
		if kind != "vhost" {
			f.CheckTrue(kind+" chains compound per-hop latency",
				get(kind, "chain3").p50 > get(kind, "chain2").p50,
				fmt.Sprintf("chain2 p50=%.0fµs chain3 p50=%.0fµs",
					get(kind, "chain2").p50, get(kind, "chain3").p50))
		}
		f.CheckTrue(kind+" loses (almost) nothing at 4k req/s",
			get(kind, "chain3").loss < 5,
			fmt.Sprintf("loss=%.2f%%", get(kind, "chain3").loss))
	}
	if has("vhost") {
		// The shared poll thread walks vifs in creation order, so a forward
		// chain cascades through every stage inside ONE poll round: adding a
		// third stage is free. Wrapping back to the client (pingpong) crosses
		// the order boundary and costs a full extra round.
		f.CheckTrue("vhost cascades forward chains in one poll round",
			get("vhost", "chain3").p50 < get("vhost", "chain2").p50+10,
			fmt.Sprintf("chain2 p50=%.0fµs chain3 p50=%.0fµs",
				get("vhost", "chain2").p50, get("vhost", "chain3").p50))
		f.CheckTrue("vhost pingpong pays a full extra poll round to wrap",
			get("vhost", "pingpong").p50 > get("vhost", "chain2").p50+40,
			fmt.Sprintf("pingpong p50=%.0fµs chain2 p50=%.0fµs",
				get("vhost", "pingpong").p50, get("vhost", "chain2").p50))
	}
	if has("vf") && has("vhost") && has("swpass") {
		// Latency discipline ordering: interrupt-on-arrival beats waiting
		// for the next poll tick, which beats a 4 kHz coalescing timer.
		f.CheckTrue("interrupt delivery beats poll-wait beats coalescing timer",
			get("vf", "pingpong").p50 < get("vhost", "pingpong").p50 &&
				get("vhost", "pingpong").p50 < get("swpass", "pingpong").p50,
			fmt.Sprintf("vf=%.0fµs vhost=%.0fµs swpass=%.0fµs",
				get("vf", "pingpong").p50, get("vhost", "pingpong").p50,
				get("swpass", "pingpong").p50))
	}
	if has("swpass") {
		f.CheckRange("swpass round trip is two coalescing windows",
			get("swpass", "pingpong").p50, 400, 600)
	}
	var violations int64
	for _, r := range results {
		violations += r.(chainMeasure).violations
	}
	f.CheckTrue("zero invariant violations across the sweep", violations == 0,
		fmt.Sprintf("violations=%d", violations))
	return f
}
