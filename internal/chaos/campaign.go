package chaos

import (
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config parameterizes one campaign. The plan it produces depends only on
// the engine seed and these fields — never on what else the simulation
// does — because every draw comes from the "chaos:"+Name sub-stream.
type Config struct {
	Name string
	// Start/End bound the injection window; fault *windows* may extend
	// past End, new injections never do.
	Start, End units.Time
	// Ports and VFsPerPort bound the targets drawn (Scenario.Port indexes
	// the injector's Watch order).
	Ports, VFsPerPort int
	// StormRate is the mean fault arrival rate in faults per simulated
	// second (Poisson arrivals), each of a kind drawn uniformly from every
	// injectable kind; 0 plans no storm.
	StormRate float64
	// CascadeProb is the chance each planned fault spawns a follow-up
	// fault CascadeDelay after its window clears, on the same port — the
	// fault-during-recovery cascade.
	CascadeProb  float64
	CascadeDelay units.Duration
}

// stormKinds is every injectable kind, in draw order.
var stormKinds = [...]fault.Kind{
	fault.LinkFlap, fault.MailboxDrop, fault.MailboxDelay,
	fault.QueueStall, fault.DeviceReset, fault.SurpriseRemoveVF,
}

// Plan draws a full campaign schedule: Poisson fault arrivals over
// [Start, End) with per-kind parameter jitter, plus recovery cascades.
// Deterministic per (engine seed, cfg); calling it twice on equally-seeded
// engines yields identical plans.
func Plan(eng *sim.Engine, cfg Config) []fault.Scenario {
	rng := eng.Stream("chaos:" + cfg.Name)
	var plan []fault.Scenario
	if cfg.StormRate > 0 {
		for t := cfg.Start; ; {
			t = t.Add(expInterval(rng, cfg.StormRate))
			if t >= cfg.End {
				break
			}
			plan = append(plan, drawOne(rng, cfg, t, stormKinds[rng.Intn(len(stormKinds))]))
		}
	}
	// Cascades draw after the storm, so the storm schedule is identical
	// with cascades on or off.
	if cfg.CascadeProb > 0 {
		for _, base := range plan {
			if rng.Float64() >= cfg.CascadeProb {
				continue
			}
			at := base.At.Add(base.Duration).Add(cfg.CascadeDelay)
			c := drawOne(rng, cfg, at, stormKinds[rng.Intn(len(stormKinds))])
			c.Port = base.Port // the cascade hits the component still recovering
			if at < cfg.End {
				plan = append(plan, c)
			}
		}
	}
	sortPlan(plan)
	return plan
}

// Spaced plans n injections of one kind at fixed spacing with seeded
// jitter on offsets and fault parameters — the shape recovery-latency
// figures want: every episode fully recovers before the next begins.
func Spaced(eng *sim.Engine, cfg Config, kind fault.Kind, n int, every units.Duration) []fault.Scenario {
	rng := eng.Stream("chaos:" + cfg.Name)
	plan := make([]fault.Scenario, 0, n)
	for i := 0; i < n; i++ {
		at := cfg.Start.Add(units.Duration(i) * every).Add(randDur(rng, 0, every/10))
		plan = append(plan, drawOne(rng, cfg, at, kind))
	}
	return plan
}

// Arm schedules every scenario on the injector, failing on the first
// invalid one (Schedule's errors name the kind and the bad target).
func Arm(inj *fault.Injector, plan []fault.Scenario) error {
	for _, s := range plan {
		if err := inj.Schedule(s); err != nil {
			return err
		}
	}
	return nil
}

// FLRDuringMailboxRetry is the correlated preset for the mailbox/reset
// race: a drop window forces the VF's pending request into its retry
// loop, then a global device reset lands while those retries are still in
// flight — the FLR must abort the mailbox transaction cleanly. The caller
// issues some mailbox traffic (e.g. a VLAN join) just inside the window.
func FLRDuringMailboxRetry(at units.Time, port int) []fault.Scenario {
	return []fault.Scenario{
		{At: at, Kind: fault.MailboxDrop, Port: port, Duration: 4 * units.Millisecond},
		{At: at.Add(units.Millisecond), Kind: fault.DeviceReset, Port: port},
	}
}

// drawOne fills one scenario's parameters for the kind. The draw sequence
// is fixed per kind, so a plan is reproducible from the stream alone.
func drawOne(rng *sim.RNG, cfg Config, at units.Time, kind fault.Kind) fault.Scenario {
	s := fault.Scenario{At: at, Kind: kind}
	if cfg.Ports > 1 {
		s.Port = rng.Intn(cfg.Ports)
	}
	ms := units.Millisecond
	switch kind {
	case fault.LinkFlap:
		s.Duration = randDur(rng, 50*ms, 500*ms)
	case fault.MailboxDrop:
		s.Duration = randDur(rng, 1*ms, 5*ms)
	case fault.MailboxDelay:
		s.Duration = randDur(rng, 1*ms, 3*ms)
		s.Delay = randDur(rng, 200*units.Microsecond, 800*units.Microsecond)
	case fault.QueueStall:
		s.VF = drawVF(rng, cfg)
		s.Duration = randDur(rng, 50*ms, 300*ms)
	case fault.DeviceReset:
		// no parameters
	case fault.SurpriseRemoveVF:
		s.VF = drawVF(rng, cfg)
		// Always with a return window: a function gone forever has no
		// recovery to measure, only a failover.
		s.Duration = randDur(rng, 200*ms, 1000*ms)
	}
	return s
}

func drawVF(rng *sim.RNG, cfg Config) int {
	if cfg.VFsPerPort <= 1 {
		return 0
	}
	return rng.Intn(cfg.VFsPerPort)
}

func randDur(rng *sim.RNG, lo, hi units.Duration) units.Duration {
	if hi <= lo {
		return lo
	}
	return lo + units.Duration(rng.Float64()*float64(hi-lo))
}

// expInterval draws a Poisson inter-arrival gap for the given rate
// (events per second).
func expInterval(rng *sim.RNG, rate float64) units.Duration {
	u := rng.Float64()
	return units.Duration(-math.Log(1-u) / rate * float64(units.Second))
}

// sortPlan orders scenarios by injection time (ties broken by kind, then
// target) so Arm schedules them in a stable order regardless of how the
// plan was assembled.
func sortPlan(plan []fault.Scenario) {
	sort.Slice(plan, func(i, j int) bool {
		a, b := plan[i], plan[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.VF < b.VF
	})
}
