package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vmm"
)

// This file adds the robustness experiment the paper does not run: a DNIS
// guest (VF active, PV standby on a second port) under injected faults,
// measuring packet loss, mailbox retries and time-to-recover per fault
// type. The planned-migration switch window (§6.7, 0.6 s) is the baseline
// the unplanned failover is compared against: with miimon-style health
// polling the unplanned outage is bounded by detection latency plus the
// failover window, far below the planned hot-unplug handshake.

func init() {
	registerPoints("faults", "Fault injection: packet loss and time-to-recover by fault type",
		wholePoint(Faults), unwrapFigure)
}

const (
	faultBucket = 10 * units.Millisecond
	faultAt     = 2 * units.Second
	faultEnd    = 8 * units.Second
)

// faultCase is one injected-fault scenario.
type faultCase struct {
	name string
	kind fault.Kind
	dur  units.Duration
}

// faultResult is one run's measured recovery behaviour.
type faultResult struct {
	nominalPPS  float64
	lostPkts    float64
	ttr         units.Duration // last traffic-outage bucket end − inject time
	pvCarried   bool           // standby carried ≥half nominal while active
	retries     int64
	reinits     int64
	failovers   int64 // monitor-initiated
	failbacks   int64
	endOnVF     bool
	vlanJoined  bool // mbox-drop case: the delayed request eventually landed
	macOK       bool
	mboxFailure int64
	violations  []chaos.Violation // system-wide invariant audit after recovery
}

// runFaultCase builds a fresh two-port testbed with one bonded guest (VF on
// port 0, PV standby on port 1), starts line-rate UDP and the bond health
// monitor, injects the fault at t = 2 s and measures recovery until t = 8 s.
func runFaultCase(c faultCase) faultResult {
	tb := core.NewTestbed(core.Config{
		Ports: 2, Opts: vmm.AllOptimizations, NetbackThreads: 2,
	})
	g, err := tb.AddBondedGuestOn("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, 1, netstack.DefaultAIC())
	if err != nil {
		panic(err)
	}
	g.Bond.StartMonitor(0) // model default: miimon 100 ms
	tb.StartUDP(g, model.LineRateUDP)

	series := stats.NewSeries(faultBucket)
	nBuckets := int(int64(faultEnd)/int64(faultBucket)) + 1
	onPV := make([]bool, nBuckets)
	var lastBytes units.Size
	tick := sim.NewTicker(tb.Eng, faultBucket, "faults:sample", func(now units.Time) {
		cur := g.Recv.Stats.AppBytes
		series.Add(now-1, float64(cur-lastBytes)) // -1ns: land in the elapsed bucket
		lastBytes = cur
		if idx := int(int64(now)/int64(faultBucket)) - 1; idx >= 0 && idx < nBuckets {
			onPV[idx] = !g.Bond.ActiveVF()
		}
	})
	defer tick.Stop()

	inj := fault.NewInjector(tb.Eng, nil)
	inj.Watch(tb.Ports[0], tb.PFs[0])
	inj.MustSchedule(fault.Scenario{At: units.Time(faultAt), Kind: c.kind, Port: 0, VF: 0, Duration: c.dur})
	if c.kind == fault.MailboxDrop {
		// Mailbox faults only bite when there is mailbox traffic: issue a
		// VLAN join just inside the drop window so the request is lost and
		// must survive on retries.
		tb.Eng.At(units.Time(faultAt+100*units.Microsecond), "faults:vlan-join", func() {
			if err := g.VF.JoinVLAN(100); err != nil {
				panic(err)
			}
		})
	}

	// Packet accounting checkpoints.
	var pktsAt1s, pktsAt2s int64
	tb.Eng.At(units.Time(units.Second), "faults:mark", func() { pktsAt1s = g.Recv.Stats.AppPackets })
	tb.Eng.At(units.Time(faultAt), "faults:mark", func() { pktsAt2s = g.Recv.Stats.AppPackets })
	tb.Eng.RunUntil(units.Time(faultEnd))
	tb.StopAll()
	tick.Stop() // before the audit advances time into empty buckets
	violations := chaos.AuditTestbed(tb)
	chaos.Record(tb.Obs, violations)

	r := faultResult{
		violations: violations,
		nominalPPS: float64(pktsAt2s-pktsAt1s) / units.Duration(faultAt-units.Second).Seconds(),
		retries:    g.VF.MboxRetries,
		reinits:    g.VF.Reinits,
		failovers:  g.Bond.FaultFailovers,
		failbacks:  g.Bond.Failbacks,
		endOnVF:    g.Bond.ActiveVF(),
		macOK:      g.VF.MACConfirmed,
	}
	r.mboxFailure = g.VF.MboxFailures
	for _, v := range tb.PFs[0].VFVLANs(0) {
		if v == 100 {
			r.vlanJoined = true
		}
	}

	// Loss: expected packets over the fault window minus what arrived.
	delivered := float64(g.Recv.Stats.AppPackets - pktsAt2s)
	r.lostPkts = r.nominalPPS*units.Duration(faultEnd-faultAt).Seconds() - delivered
	if r.lostPkts < 0 {
		r.lostPkts = 0
	}

	// Time-to-recover: the end of the last below-half-nominal bucket at or
	// after the injection. The standby carrying traffic counts as
	// recovered — that is the point of the bond.
	nomBucket := r.nominalPPS * faultBucket.Seconds() * float64(model.FrameSize) // bytes
	firstIdx := int(int64(faultAt) / int64(faultBucket))
	lastLow := -1
	for i := firstIdx; i < series.Len() && i < nBuckets; i++ {
		if series.Bucket(i) < nomBucket/2 {
			lastLow = i
		}
		if onPV[i] && series.Bucket(i) > nomBucket/2 {
			r.pvCarried = true
		}
	}
	if lastLow >= 0 {
		r.ttr = units.Duration(int64(lastLow+1)*int64(faultBucket)) - units.Duration(faultAt)
	}
	return r
}

// Faults runs every fault scenario and reports loss, retries and recovery
// latency per type.
func Faults() *report.Figure {
	f := &report.Figure{
		ID:    "faults",
		Title: "Fault injection on a DNIS bond: loss and time-to-recover by fault type",
		Description: "A bonded guest (VF on port 0, PV standby on port 1, miimon 100 ms) " +
			"receives line-rate UDP; one fault is injected at t = 2 s per run. " +
			"Recovery is VF→PV failover (plus FLR-based VF reinit where the function " +
			"itself died), then failback once the VF is healthy again.",
		PaperRef: []string{
			"planned DNIS switch outage is 0.6 s (§6.7); unplanned failover must stay in that order",
			"PF→VF mailbox carries reset/link events (§4.2); requests survive loss via retry",
		},
	}
	cases := []faultCase{
		{name: "link-flap", kind: fault.LinkFlap, dur: units.Second},
		{name: "mbox-drop", kind: fault.MailboxDrop, dur: 3 * units.Millisecond},
		{name: "queue-stall", kind: fault.QueueStall, dur: units.Second},
		{name: "device-reset", kind: fault.DeviceReset},
		{name: "vf-remove", kind: fault.SurpriseRemoveVF, dur: 1500 * units.Millisecond},
	}

	lost := f.AddSeries("packets lost", "pkts")
	ttr := f.AddSeries("time to recover", "ms")
	retries := f.AddSeries("mailbox retries", "")
	for _, c := range cases {
		r := runFaultCase(c)
		lost.Add(c.name, r.lostPkts)
		ttr.Add(c.name, r.ttr.Seconds()*1e3)
		retries.Add(c.name, float64(r.retries))

		bounded := r.nominalPPS * 0.6 // the §6.7 planned-switch budget, in packets
		switch c.kind {
		case fault.MailboxDrop:
			f.CheckTrue(c.name+": request survived via retries", r.retries >= 1,
				fmt.Sprintf("retries=%d", r.retries))
			f.CheckTrue(c.name+": VLAN join eventually applied", r.vlanJoined, "")
			f.CheckTrue(c.name+": no retry exhaustion", r.mboxFailure == 0,
				fmt.Sprintf("failures=%d", r.mboxFailure))
			f.CheckTrue(c.name+": datapath unaffected", r.failovers == 0 && r.lostPkts < r.nominalPPS*0.1,
				fmt.Sprintf("failovers=%d lost=%.0f", r.failovers, r.lostPkts))
		default:
			f.CheckRange(c.name+": outage bounded (TTR ms)", r.ttr.Seconds()*1e3, 10, 600)
			f.CheckTrue(c.name+": standby carried traffic", r.pvCarried, "")
			f.CheckTrue(c.name+": loss under the planned-switch budget", r.lostPkts <= bounded,
				fmt.Sprintf("lost=%.0f budget=%.0f", r.lostPkts, bounded))
			f.CheckTrue(c.name+": failed back to VF", r.endOnVF && r.failbacks >= 1,
				fmt.Sprintf("onVF=%v failbacks=%d", r.endOnVF, r.failbacks))
		}
		switch c.kind {
		case fault.DeviceReset, fault.SurpriseRemoveVF:
			f.CheckTrue(c.name+": VF reinitialized via FLR", r.reinits >= 1 && r.macOK,
				fmt.Sprintf("reinits=%d macOK=%v", r.reinits, r.macOK))
		}
		f.CheckTrue(c.name+": zero invariant violations", len(r.violations) == 0,
			fmt.Sprintf("%v", r.violations))
	}
	return f
}
