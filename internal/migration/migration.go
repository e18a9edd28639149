// Package migration implements live VM migration: iterative pre-copy with
// log-dirty tracking, stop-and-copy, and the paper's dynamic network
// interface switching (DNIS, §4.4) that hot-removes the VF (switching the
// bond to the PV NIC) before migration and hot-adds a VF at the target.
package migration

import (
	"fmt"

	"repro/internal/drivers"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Result describes a completed migration.
type Result struct {
	Start units.Time
	// PrecopyRounds holds the pages each pre-copy round sent, in order.
	PrecopyRounds []uint64
	// DowntimeStart/DowntimeEnd bound the stop-and-copy service outage.
	DowntimeStart units.Time
	DowntimeEnd   units.Time
	// SwitchOutage is the DNIS interface-switch loss window (zero for a
	// plain PV migration).
	SwitchOutage units.Duration
	// HotAddDone is when the DNIS hot add-on completed — the target-side
	// VF is active in the bond. It lands after DowntimeEnd (service is
	// already restored on the PV path by then) and is zero for plain PV
	// migrations.
	HotAddDone units.Time
	// PagesSent is the total page traffic.
	PagesSent uint64
	// Err is set when the migration aborted (the inter-host channel gave
	// up). The guest is left running at the source; downtime fields
	// beyond the abort point stay zero.
	Err error
}

// Downtime reports the stop-and-copy outage.
func (r *Result) Downtime() units.Duration { return r.DowntimeEnd.Sub(r.DowntimeStart) }

// TotalDuration reports start → service restore.
func (r *Result) TotalDuration() units.Duration { return r.DowntimeEnd.Sub(r.Start) }

// VFHotAddLatency reports how long after service restore the target-side
// VF came up — the DNIS hot add-on cost, separate from SwitchOutage (which
// is paid at the source before pre-copy). Zero when no VF was re-added.
func (r *Result) VFHotAddLatency() units.Duration {
	if r.HotAddDone == 0 {
		return 0
	}
	return r.HotAddDone.Sub(r.DowntimeEnd)
}

// Channel moves migration state to the target host. The analytic default
// (nil channel) models a dedicated management link at
// model.MigrationLinkRate; the cluster fabric provides a real channel whose
// chunks contend with foreground traffic on the shared links.
type Channel interface {
	// Send moves size bytes toward the target, calling done exactly once:
	// nil on delivery, non-nil when the channel gave up (the migration
	// aborts cleanly).
	Send(size units.Size, done func(err error))
}

// Manager runs migrations on one hypervisor.
type Manager struct {
	hv *vmm.Hypervisor
}

// NewManager creates a migration manager with the paper's pre-copy
// parameters (model.PrecopyRounds, model.PrecopyStopThresholdPages, ...).
func NewManager(hv *vmm.Hypervisor) *Manager {
	return &Manager{hv: hv}
}

// dirtier models the running guest touching its working set: a ticker marks
// pages through the real log-dirty bitmap so each round's harvest is
// deduplicated exactly as Xen's would be.
type dirtier struct {
	tick *sim.Ticker
}

func (m *Manager) startDirtier(d *vmm.Domain) *dirtier {
	// A named sub-stream keyed by the domain: the dirty-page draws are the
	// same no matter what else in the simulation consumes randomness, and
	// concurrent shards of a parallel run cannot perturb each other.
	rng := m.hv.Engine().Stream("migration:dirtier:" + d.Name)
	dm := d.Memory
	dm.StartDirtyTracking()
	period := 10 * units.Millisecond
	perTick := int(float64(model.DirtyPagesPerSecond) * period.Seconds())
	ws := uint64(model.WorkingSetPages)
	if ws > dm.Pages() {
		ws = dm.Pages()
	}
	t := sim.NewTicker(m.hv.Engine(), period, "migration:dirtier", func(units.Time) {
		if d.Paused() {
			return
		}
		for i := 0; i < perTick; i++ {
			gfn := uint64(rng.Intn(int(ws)))
			dm.MarkDirty(mem.GPA(gfn << mem.PageShift))
		}
	})
	return &dirtier{tick: t}
}

// MigratePV live-migrates a domain whose network is fully software-based
// (the Fig. 20 baseline): pre-copy rounds while the guest runs, then
// stop-and-copy. onDone receives the result when service is restored at the
// target.
func (m *Manager) MigratePV(d *vmm.Domain, onDone func(*Result)) error {
	if d.Memory == nil {
		return fmt.Errorf("migration: domain %s has no memory", d.Name)
	}
	if len(d.Assigned()) != 0 {
		return fmt.Errorf("migration: domain %s has passthrough hardware (%d functions); use DNIS", d.Name, len(d.Assigned()))
	}
	res := &Result{Start: m.hv.Engine().Now()}
	dirt := m.startDirtier(d)
	m.precopy(d, dirt, nil, d.Memory.Pages(), 0, res, func() {
		// Service restore for a software-only guest: unpause at the
		// "target" — the analytic channel has no real second machine.
		m.hv.SetPaused(d, false)
		res.DowntimeEnd = m.hv.Engine().Now()
		if onDone != nil {
			onDone(res)
		}
	}, m.aborter(d, dirt, res, onDone))
	return nil
}

// send moves pages of state through ch, or over the analytic management
// link when ch is nil.
func (m *Manager) send(ch Channel, pages uint64, done func(err error)) {
	size := units.Size(pages) * mem.PageSize
	if ch != nil {
		ch.Send(size, done)
		return
	}
	dur := units.TransferTime(size, model.MigrationLinkRate)
	m.hv.Engine().After(dur, "migration:xfer", func() { done(nil) })
}

// aborter builds the clean-failure path: stop dirty tracking, leave (or
// put back) the guest running at the source, record the error, and still
// deliver the result so callers never hang on a dead channel.
func (m *Manager) aborter(d *vmm.Domain, dirt *dirtier, res *Result, onDone func(*Result)) func(error) {
	return func(err error) {
		dirt.tick.Stop()
		d.Memory.StopDirtyTracking()
		if d.Paused() {
			m.hv.SetPaused(d, false)
		}
		res.Err = err
		if onDone != nil {
			onDone(res)
		}
	}
}

// precopy runs one round: send `pages` now; whatever the guest dirties in
// the meantime is the next round's payload. When rounds converge (or the
// cap is hit) it proceeds to stop-and-copy, whose service restore is the
// caller-supplied restore hook — unpause-in-place for the analytic path, a
// target-host domain restore for the inter-host path.
func (m *Manager) precopy(d *vmm.Domain, dirt *dirtier, ch Channel, pages uint64, round int, res *Result, restore func(), abort func(error)) {
	m.hv.ChargeDom0(units.Cycles(pages * model.MigrationPerPageDom0Cycles))
	res.PagesSent += pages
	m.send(ch, pages, func(err error) {
		res.PrecopyRounds = append(res.PrecopyRounds, pages)
		if err != nil {
			abort(err)
			return
		}
		dirty := d.Memory.HarvestDirty()
		if dirty <= model.PrecopyStopThresholdPages || round+1 >= model.PrecopyRounds {
			m.stopAndCopy(d, dirt, ch, dirty, res, restore, abort)
			return
		}
		m.precopy(d, dirt, ch, dirty, round+1, res, restore, abort)
	})
}

func (m *Manager) stopAndCopy(d *vmm.Domain, dirt *dirtier, ch Channel, pages uint64, res *Result, restore func(), abort func(error)) {
	eng := m.hv.Engine()
	res.DowntimeStart = eng.Now()
	m.hv.SetPaused(d, true)
	dirt.tick.Stop()
	d.Memory.StopDirtyTracking()
	m.hv.ChargeDom0(units.Cycles(pages * model.MigrationPerPageDom0Cycles))
	res.PagesSent += pages
	m.send(ch, pages, func(err error) {
		if err != nil {
			abort(err)
			return
		}
		eng.After(model.StopAndCopyOverhead, "migration:stopcopy", restore)
	})
}

// MigrateDNIS migrates a domain that holds a VF, using dynamic network
// interface switching (§4.4): the migration manager asks the virtual
// hot-plug controller to signal removal of the VF; the bonding driver fails
// over to the PV NIC (losing traffic for the switch window); the guest
// shuts the VF driver down; the VF is unassigned; then the "real" migration
// proceeds exactly as MigratePV. When service is restored, a virtual hot
// add-on re-attaches a VF at the target (the attachVF callback builds the
// new driver instance — the target's VF "may or may not be identical").
func (m *Manager) MigrateDNIS(d *vmm.Domain, bond *drivers.Bond, attachVF func() *drivers.VFDriver, onDone func(*Result)) error {
	restore := func() { m.hv.SetPaused(d, false) }
	hotAdd := func(done func()) {
		m.hv.HotplugAdd(d, func() {
			if attachVF != nil {
				if newVF := attachVF(); newVF != nil {
					bond.ActivateVF(newVF)
				}
			}
			done()
		})
	}
	return m.migrateDNIS(d, bond, nil, restore, hotAdd, onDone)
}

// TargetHooks are the target-host side of an inter-host DNIS migration.
// Both hooks run on the shared cluster clock; the migration manager only
// dictates when.
type TargetHooks struct {
	// Restore brings the guest up at the target on its paravirtual path
	// (domain restore + PV networking + MAC re-announcement). Its return
	// marks the end of downtime.
	Restore func()
	// HotAdd performs the DNIS hot add-on at the target — virtual
	// hot-plug signalling plus VF driver attach — calling done when the
	// new VF carries traffic. nil skips the hot add-on.
	HotAdd func(done func())
}

// MigrateDNISRemote is MigrateDNIS across hosts: the same hot-removal and
// bond failover at the source, but pre-copy and stop-and-copy move through
// ch (a real fabric path contending with foreground traffic), and service
// is restored by the target's hooks rather than by unpausing in place. On
// channel failure the migration aborts cleanly: the source guest keeps
// running on its PV path and the result carries Err.
func (m *Manager) MigrateDNISRemote(d *vmm.Domain, bond *drivers.Bond, ch Channel, tgt TargetHooks, onDone func(*Result)) error {
	if ch == nil {
		return fmt.Errorf("migration: inter-host migration needs a channel")
	}
	if tgt.Restore == nil {
		return fmt.Errorf("migration: inter-host migration needs a target restore hook")
	}
	hotAdd := tgt.HotAdd
	if hotAdd == nil {
		hotAdd = func(done func()) { done() }
	}
	// The source stays paused — the guest now runs at the target.
	return m.migrateDNIS(d, bond, ch, tgt.Restore, hotAdd, onDone)
}

// migrateDNIS is the DNIS sequence both entry points share. Step 1: virtual
// hot removal → bond failover → driver shutdown → unassign from the IOMMU;
// only then is the guest hardware-neutral. Step 2: the "real" migration, "as
// if the guest was never equipped with the VF hardware", over ch (nil means
// the analytic link). Step 3: restore ends the downtime, and hotAdd brings a
// VF back for post-migration performance, calling done when it is active.
func (m *Manager) migrateDNIS(d *vmm.Domain, bond *drivers.Bond, ch Channel, restore func(), hotAdd func(done func()), onDone func(*Result)) error {
	if d.Memory == nil {
		return fmt.Errorf("migration: domain %s has no memory", d.Name)
	}
	vf := bond.VF()
	if vf == nil || !vf.Attached() {
		return fmt.Errorf("migration: bond has no active VF; use MigratePV")
	}
	fn := vf.Queue().Function()
	start := m.hv.Engine().Now()
	d.HotplugHandler = func(ev vmm.HotplugEvent) {
		if !ev.Remove {
			return
		}
		bond.FailoverToPV(model.DNISSwitchOutage)
		bond.DetachVF()
	}
	m.hv.HotplugRemove(d, fn, func() {
		m.hv.UnassignDevice(d, fn)
		res := &Result{Start: start, SwitchOutage: model.DNISSwitchOutage}
		dirt := m.startDirtier(d)
		m.precopy(d, dirt, ch, d.Memory.Pages(), 0, res, func() {
			restore()
			res.DowntimeEnd = m.hv.Engine().Now()
			hotAdd(func() {
				res.HotAddDone = m.hv.Engine().Now()
				if onDone != nil {
					onDone(res)
				}
			})
		}, m.aborter(d, dirt, res, onDone))
	})
	return nil
}
