// Package chaos composes seeded randomized fault campaigns on top of the
// fault injector and audits system-wide invariants once the dust settles:
// packet conservation through every layer (NIC rings, every software
// datapath backend via the Datapath interface, port in-flight accounting),
// interrupt and watchdog liveness, migration
// termination, and event-pool integrity. A campaign is a pure function of
// (engine seed, campaign name) — drawn eagerly from a named RNG sub-stream
// — so a chaos run is exactly as reproducible as any other experiment.
package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Violation is one failed invariant.
type Violation struct {
	Invariant string // stable kebab-case name ("ring-conservation", ...)
	Where     string // component ("h0:eth0/vf3", "netback", ...)
	Detail    string // the numbers that disagreed
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s: %s", v.Invariant, v.Where, v.Detail)
}

// SettleWindow is how far an audit advances the engine before checking
// quiesce invariants. Tickers reschedule forever, so a simulation never
// fully drains — but once the sources are stopped this is enough for every
// in-flight completion (wire transfers, MSI injections, netback poll
// rounds, pool jobs) to land.
const SettleWindow = 10 * units.Millisecond

// RecoveryBound is the model's worst-case watchdog recovery latency:
// miimon detection, watchdog backoff, and the FLR quiesce window, with an
// extra FLR of margin. A monitored VF that is recoverable yet still
// unhealthy after this long is a liveness violation, not a slow recovery.
const RecoveryBound = model.MiimonPeriod + model.WatchdogResetBackoff + 2*model.FLRLatency

// Record counts violations into the registry: the headline
// chaos.invariant_violations total (always registered, so a clean run
// reports an explicit zero that reaches suite_metrics.json) plus one
// chaos.violations.<invariant> counter per failed invariant.
func Record(reg *obs.Registry, vs []Violation) {
	reg.Counter("chaos.invariant_violations").Add(int64(len(vs)))
	for _, v := range vs {
		reg.Counter("chaos.violations." + v.Invariant).Inc()
	}
}

// AuditTestbed settles the testbed's engine, gives any mid-recovery VF the
// model's recovery bound to come back, and returns every violated
// invariant. It advances simulated time, so call it after measurement.
func AuditTestbed(tb *core.Testbed) []Violation {
	settle(tb.Eng)
	drainPorts(tb.Eng, tb.Ports)
	awaitRecovery(tb.Eng, func() bool { return recoveryPending(tb) })
	return CheckTestbed(tb)
}

// CheckTestbed audits one testbed's invariants at the current instant,
// without advancing time. Most callers want AuditTestbed.
func CheckTestbed(tb *core.Testbed) []Violation {
	var vs []Violation
	checkArena(&vs, tb.Eng)
	checkBed(&vs, tb, "")
	return vs
}

// AuditCluster is AuditTestbed across a cluster sharing one engine, plus
// the ToR fabric's queues and migration-termination checks for any
// migrations the caller started.
func AuditCluster(c *cluster.Cluster, migs []*cluster.Migration) []Violation {
	settle(c.Eng)
	for _, h := range c.Hosts() {
		drainPorts(c.Eng, h.Bed.Ports)
	}
	awaitRecovery(c.Eng, func() bool {
		for _, h := range c.Hosts() {
			if recoveryPending(h.Bed) {
				return true
			}
		}
		return false
	})
	return CheckCluster(c, migs)
}

// CheckCluster audits a cluster's invariants at the current instant,
// without advancing time: every host's layers, the ToR fabric's queues
// (empty once the sources are stopped and the audit has drained), and
// migration termination. Most callers want AuditCluster.
func CheckCluster(c *cluster.Cluster, migs []*cluster.Migration) []Violation {
	var vs []Violation
	checkArena(&vs, c.Eng)
	for _, h := range c.Hosts() {
		checkBed(&vs, h.Bed, h.Name+":")
	}
	if q := c.QueuedBytes(); q != 0 {
		vs = append(vs, Violation{"cluster-queue-drain", "fabric",
			fmt.Sprintf("%v still queued after drain", q)})
	}
	vs = append(vs, CheckMigrations(migs)...)
	return vs
}

// CheckMigrations audits migration termination: every started migration
// must have produced a Result — completed or cleanly aborted, never hung —
// and a completed one must have a coherent downtime window.
func CheckMigrations(migs []*cluster.Migration) []Violation {
	var vs []Violation
	for i, m := range migs {
		if m == nil {
			continue
		}
		where := fmt.Sprintf("migration[%d]", i)
		if m.Result == nil {
			vs = append(vs, Violation{"migration-termination", where,
				"no result: neither completed nor aborted"})
			continue
		}
		if m.Result.Err != nil {
			continue // clean abort is a legal terminal state
		}
		if m.Result.DowntimeEnd < m.Result.DowntimeStart || m.Result.DowntimeEnd == 0 {
			vs = append(vs, Violation{"migration-termination", where,
				fmt.Sprintf("completed with incoherent downtime window [%v, %v]",
					m.Result.DowntimeStart, m.Result.DowntimeEnd)})
		}
		if m.Target == nil {
			vs = append(vs, Violation{"migration-termination", where,
				"completed without a restored target guest"})
		}
	}
	return vs
}

func settle(eng *sim.Engine) { eng.RunUntil(eng.Now().Add(SettleWindow)) }

// drainPorts runs the engine past every port's outstanding transfer
// completions. A source that overdrove a path (fig10's inter-VM sender
// outruns the internal DMA engine on purpose) leaves completions
// scheduled beyond the settle window; those batches are in flight, not
// leaked, so the in-flight check must let them land first.
func drainPorts(eng *sim.Engine, ports []*nic.Port) {
	var until units.Time
	for _, p := range ports {
		if q := p.QuiesceAt(); q > until {
			until = q
		}
	}
	if until > eng.Now() {
		eng.RunUntil(until.Add(units.Microsecond))
	}
}

// awaitRecovery runs the engine in miimon-period steps, up to
// RecoveryBound, while any monitored VF still looks recoverable-but-sick —
// so the liveness check below measures "failed to recover within the model
// bound", not "was caught mid-FLR".
func awaitRecovery(eng *sim.Engine, pending func() bool) {
	deadline := eng.Now().Add(RecoveryBound)
	for eng.Now() < deadline && pending() {
		eng.RunUntil(eng.Now().Add(model.MiimonPeriod))
	}
}

// recoveryPending reports whether some monitored, recoverable VF is still
// unhealthy — the states awaitRecovery gives time to resolve.
func recoveryPending(tb *core.Testbed) bool {
	for _, g := range tb.Guests() {
		if !watchdogCovered(g) {
			continue
		}
		if g.VF.ReinitInFlight() || (vfRecoverable(g) && !g.VF.Healthy()) {
			return true
		}
	}
	return false
}

// watchdogCovered reports whether the guest's VF is under a running health
// monitor — the precondition for any liveness promise.
func watchdogCovered(g *core.Guest) bool {
	return g.Bond != nil && g.Bond.Monitoring() && g.VF != nil && g.VF.Attached()
}

// vfRecoverable reports whether the VF's failure, if any, is one the
// watchdog can fix: function present on the bus, link up, DMA engine not
// externally wedged, no FLR already in flight. Link-down, surprise removal
// and active stall windows are the injector's to clear, not the driver's.
func vfRecoverable(g *core.Guest) bool {
	q := g.VF.Queue()
	return g.Port.LinkUp() && q.Function().Config().Present() &&
		!q.Stalled() && !g.VF.ReinitInFlight()
}

func checkArena(vs *[]Violation, eng *sim.Engine) {
	if n := eng.Arena().Corruptions(); n > 0 {
		*vs = append(*vs, Violation{"pool-integrity", "sim.Arena",
			fmt.Sprintf("%d pool corruptions (double-put or unpooled recycle)", n)})
	}
}

// checkBed audits one testbed's layers; prefix disambiguates hosts sharing
// a cluster (port names already carry it).
func checkBed(vs *[]Violation, tb *core.Testbed, prefix string) {
	now := tb.Eng.Now()
	for _, p := range tb.Ports {
		checkQueue(vs, now, p.PFQueue())
		for i := 0; i < p.NumVFs(); i++ {
			checkQueue(vs, now, p.VFQueue(i))
		}
		if n := p.InFlightPackets(); n != 0 {
			*vs = append(*vs, Violation{"port-in-flight", p.Name(),
				fmt.Sprintf("%d packets still in flight after settle", n)})
		}
	}
	// Every software backend — netback, VMDq (and its fallback), vhost,
	// OVS, software passthrough — answers to the same conservation
	// identity through the Datapath interface. Creation order keeps the
	// walk deterministic; a repeated kind (the VMDq fallback is a second
	// Netback) gets an index suffix so violations name the right instance.
	seen := make(map[string]int)
	for _, dp := range tb.Datapaths() {
		kind := dp.Kind()
		seen[kind]++
		where := prefix + kind
		if seen[kind] > 1 {
			where = fmt.Sprintf("%s#%d", where, seen[kind])
		}
		s := dp.Stats()
		checkBackend(vs, where, s.Received, s.Delivered, s.Dropped, s.InFlight)
	}
	for _, g := range tb.Guests() {
		if !watchdogCovered(g) {
			continue
		}
		if vfRecoverable(g) && !g.VF.Healthy() && !g.VF.MboxDead() {
			*vs = append(*vs, Violation{"watchdog-liveness", prefix + g.Dom.Name,
				fmt.Sprintf("monitored VF %s recoverable but unhealthy %v after last chance",
					g.VF.Queue().Name(), RecoveryBound)})
		}
	}
}

// checkQueue audits one receive queue: the ring-conservation identity
// (every accepted packet was drained, still occupies the ring, or was
// wiped by a hardware reset) and interrupt liveness (no spurious firing,
// no occupied-but-unarmed wedge).
func checkQueue(vs *[]Violation, now units.Time, q *nic.Queue) {
	in := q.Stats.RxPackets
	out := q.Stats.Drained + int64(q.Occupied()) + q.Stats.ResetDropped
	if in != out {
		*vs = append(*vs, Violation{"ring-conservation", q.Name(),
			fmt.Sprintf("rx=%d but drained=%d + occupied=%d + reset_dropped=%d",
				in, q.Stats.Drained, q.Occupied(), q.Stats.ResetDropped)})
	}
	if q.Stats.SpuriousIntr > 0 {
		*vs = append(*vs, Violation{"interrupt-liveness", q.Name(),
			fmt.Sprintf("%d interrupts fired with an empty ring", q.Stats.SpuriousIntr)})
	}
	if q.IntrStuck(now) {
		*vs = append(*vs, Violation{"interrupt-liveness", q.Name(),
			fmt.Sprintf("%d packets occupied, interrupts armed, but no throttle timer pending", q.Occupied())})
	}
}

// checkBackend audits a software backend's conservation identity:
// received == delivered + dropped + in-flight, with in-flight drained to
// zero by the settle window.
func checkBackend(vs *[]Violation, where string, received, delivered, dropped, inflight int64) {
	if received != delivered+dropped+inflight {
		*vs = append(*vs, Violation{"backend-conservation", where,
			fmt.Sprintf("received=%d but delivered=%d + dropped=%d + in_flight=%d",
				received, delivered, dropped, inflight)})
	}
	if inflight != 0 {
		*vs = append(*vs, Violation{"backend-quiesce", where,
			fmt.Sprintf("%d packets still in flight after settle", inflight)})
	}
}
