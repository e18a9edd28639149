// Package fault is a deterministic, sim-engine-driven fault injector for
// the SR-IOV testbed. Scenarios are scheduled as ordinary simulation
// events against registered ports, so the same seed and schedule always
// produce the same trace: link flaps, mailbox message drop/delay windows,
// VF queue stalls, PF-initiated global device resets, and surprise VF
// hot-removal. Recovery is not the injector's job — the mailbox ack
// protocol, FLR-based VF reinit and the bond's miimon monitor (packages
// nic and drivers) are what the injected faults exercise.
package fault

import (
	"fmt"

	"repro/internal/drivers"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Kind enumerates the injectable fault types.
type Kind int

// Fault kinds.
const (
	// LinkFlap takes the port's physical link down for Duration.
	LinkFlap Kind = iota
	// MailboxDrop silently loses every mailbox message sent during the
	// Duration window (both directions) — the stuck-channel scenario the
	// retry/timeout protocol exists for.
	MailboxDrop
	// MailboxDelay adds Delay of extra in-flight latency to every mailbox
	// message sent during the Duration window.
	MailboxDelay
	// QueueStall wedges VF's DMA engine for Duration: deliveries are lost
	// and no interrupts fire.
	QueueStall
	// DeviceReset triggers the PF driver's global device reset (with the
	// §4.2 impending-reset broadcast). Recovery is driven by the VF
	// drivers' FLR/reinit path; Duration is ignored.
	DeviceReset
	// SurpriseRemoveVF makes VF vanish from the bus (config reads return
	// all-ones) with its queue dead. If Duration > 0 the function returns
	// afterwards, still reset — a watchdog must FLR and reinit it.
	SurpriseRemoveVF
)

func (k Kind) String() string {
	switch k {
	case LinkFlap:
		return "link-flap"
	case MailboxDrop:
		return "mbox-drop"
	case MailboxDelay:
		return "mbox-delay"
	case QueueStall:
		return "queue-stall"
	case DeviceReset:
		return "device-reset"
	case SurpriseRemoveVF:
		return "vf-remove"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Scenario schedules one fault at an absolute simulated time against a
// registered target port (index into the injector's Watch order).
type Scenario struct {
	At   units.Time
	Kind Kind
	Port int
	VF   int // target VF for QueueStall / SurpriseRemoveVF
	// Duration bounds windowed faults; see the Kind docs.
	Duration units.Duration
	// Delay is the extra in-flight latency for MailboxDelay.
	Delay units.Duration
}

// target is one watched port plus its active mailbox fault windows.
type target struct {
	port *nic.Port
	pf   *drivers.PFDriver

	dropUntil  units.Time
	delayUntil units.Time
	delay      units.Duration
}

// Injector schedules scenarios and accounts injections/recoveries.
type Injector struct {
	eng     *sim.Engine
	targets []*target

	// Tracer receives "fault" events (nil-safe).
	Tracer *obs.Trace
	// Injected counts applied scenarios.
	Injected int64

	// OnInject, when set, observes every scenario at the moment it is
	// applied; OnCleared observes the end of its injection window. They are
	// how the chaos SLO tracker times recoveries without the injector
	// knowing what "recovered" means.
	OnInject  func(Scenario)
	OnCleared func(Scenario)
}

// NewInjector creates an injector on the engine. The tracer may be nil.
func NewInjector(eng *sim.Engine, tracer *obs.Trace) *Injector {
	return &Injector{eng: eng, Tracer: tracer}
}

// Watch registers a port (with its PF driver) as a fault target and hooks
// its mailbox so scheduled drop/delay windows apply. It returns the
// target's index for Scenario.Port.
func (in *Injector) Watch(port *nic.Port, pf *drivers.PFDriver) int {
	t := &target{port: port, pf: pf}
	port.Mailbox().OnSend = func(dir nic.Direction, msg nic.Message) nic.SendVerdict {
		now := in.eng.Now()
		if now < t.dropUntil {
			return nic.SendVerdict{Drop: true}
		}
		if now < t.delayUntil {
			return nic.SendVerdict{Delay: t.delay}
		}
		return nic.SendVerdict{}
	}
	in.targets = append(in.targets, t)
	return len(in.targets) - 1
}

// Schedule validates the scenario and arms it as a simulation event. Errors
// name the fault kind and the offending target, so a misdirected scenario
// in a generated campaign is diagnosable from the message alone.
func (in *Injector) Schedule(s Scenario) error {
	if s.Port < 0 || s.Port >= len(in.targets) {
		return fmt.Errorf("fault: %s scenario targets port index %d, but the injector watches %d port(s) (0..%d)",
			s.Kind, s.Port, len(in.targets), len(in.targets)-1)
	}
	t := in.targets[s.Port]
	switch s.Kind {
	case QueueStall, SurpriseRemoveVF:
		if s.VF < 0 || s.VF >= t.port.NumVFs() {
			return fmt.Errorf("fault: %s scenario targets VF %d, but %s has VFs 0..%d",
				s.Kind, s.VF, t.port.Name(), t.port.NumVFs()-1)
		}
	case LinkFlap, MailboxDrop, MailboxDelay:
		if s.Duration <= 0 {
			return fmt.Errorf("fault: %s on %s needs a positive duration (got %v)",
				s.Kind, t.port.Name(), s.Duration)
		}
	case DeviceReset:
		// no extra parameters
	default:
		return fmt.Errorf("fault: unknown kind %v (port %s)", s.Kind, t.port.Name())
	}
	in.eng.At(s.At, "fault:"+s.Kind.String(), func() { in.apply(s) })
	return nil
}

// MustSchedule is Schedule for static scenario tables. The panic carries
// the full scenario alongside the validation error.
func (in *Injector) MustSchedule(s Scenario) {
	if err := in.Schedule(s); err != nil {
		panic(fmt.Sprintf("fault: MustSchedule %s (at=%v port=%d vf=%d dur=%v): %v",
			s.Kind, s.At, s.Port, s.VF, s.Duration, err))
	}
}

func (in *Injector) apply(s Scenario) {
	t := in.targets[s.Port]
	now := in.eng.Now()
	in.Injected++
	in.Tracer.Emitf(now, "fault", "inject", "%s port=%s vf=%d dur=%v",
		s.Kind, t.port.Name(), s.VF, s.Duration)
	if in.OnInject != nil {
		in.OnInject(s)
	}

	switch s.Kind {
	case LinkFlap:
		t.pf.SetLink(false)
		in.eng.After(s.Duration, "fault:link-restore", func() {
			t.pf.SetLink(true)
			in.cleared(s, t)
		})
	case MailboxDrop:
		t.dropUntil = now.Add(s.Duration)
		in.eng.After(s.Duration, "fault:mbox-restore", func() { in.cleared(s, t) })
	case MailboxDelay:
		t.delayUntil = now.Add(s.Duration)
		t.delay = s.Delay
		in.eng.After(s.Duration, "fault:mbox-restore", func() { in.cleared(s, t) })
	case QueueStall:
		q := t.port.VFQueue(s.VF)
		q.SetStalled(true)
		in.eng.After(s.Duration, "fault:stall-restore", func() {
			q.SetStalled(false)
			in.cleared(s, t)
		})
	case DeviceReset:
		t.pf.GlobalReset()
		// The reset clears on its own; recovery is the VF drivers' FLR
		// path, visible in their Reinits counters and the trace.
		in.cleared(s, t)
	case SurpriseRemoveVF:
		q := t.port.VFQueue(s.VF)
		q.Function().Config().SetPresent(false)
		q.ResetHW()
		q.SetStalled(true)
		if s.Duration > 0 {
			in.eng.After(s.Duration, "fault:vf-return", func() {
				// The device returns reset, not recovered: a driver
				// watchdog still has to FLR and reprogram it.
				q.Function().Config().SetPresent(true)
				q.SetStalled(false)
				in.cleared(s, t)
			})
		}
	}
}

// cleared marks the end of a fault's injection window.
func (in *Injector) cleared(s Scenario, t *target) {
	in.Tracer.Emitf(in.eng.Now(), "fault", "cleared", "%s port=%s vf=%d",
		s.Kind, t.port.Name(), s.VF)
	if in.OnCleared != nil {
		in.OnCleared(s)
	}
}
