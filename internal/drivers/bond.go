package drivers

import (
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Bond is an active-backup bonding driver aggregating a VF interface and a
// PV NIC, the DNIS construction of §4.4: "DNIS aggregates the VF driver
// with a software emulated virtual NIC driver ... It activates the VF
// driver at run time for performance, but switches to PV NIC driver at
// migration time."
//
// Ingress models the wire side: traffic addressed to the bond follows the
// active slave's MAC. Failing over loses packets for the switch window
// (§6.7 measures 0.6 s), after which the standby carries the traffic.
type Bond struct {
	hv  *vmm.Hypervisor
	dom *vmm.Domain

	vf     *VFDriver
	pv     *PVNic
	pvPort *nic.Port // port whose PF queue feeds the PV path

	activeVF    bool
	outageUntil units.Time

	// miimon state: the health poll ticker and the count of consecutive
	// healthy polls while on the standby (failback gate).
	monitor  *sim.Ticker
	upStreak int

	// FaultFailovers counts failovers the health monitor initiated (the
	// rest are planned migration switches).
	FaultFailovers int64
	// Failbacks counts monitor-initiated switches back to the VF slave.
	Failbacks int64
}

// NewBond aggregates the two slaves, VF active.
func NewBond(hv *vmm.Hypervisor, dom *vmm.Domain, vf *VFDriver, pv *PVNic, pvPort *nic.Port) *Bond {
	return &Bond{hv: hv, dom: dom, vf: vf, pv: pv, pvPort: pvPort, activeVF: true}
}

// ActiveVF reports whether the VF slave is active.
func (b *Bond) ActiveVF() bool { return b.activeVF && b.vf != nil && b.vf.Attached() }

// VF reports the VF slave (nil after hot removal).
func (b *Bond) VF() *VFDriver { return b.vf }

// Ingress is the wire-side entry: the client's traffic toward the bonded
// interface. During an interface switch the packets are lost; otherwise
// they follow the active slave.
func (b *Bond) Ingress(count int, bytes units.Size) {
	if b.hv.Engine().Now() < b.outageUntil {
		return
	}
	// Route by the configured active slave, not by its health: until the
	// monitor notices a fault and fails over, traffic keeps chasing the
	// dead VF and is lost at the device — that loss is the point of the
	// fault model.
	if b.activeVF && b.vf != nil {
		b.vf.port.ReceiveFromWire(nic.Batch{Dst: b.vf.MAC(), Count: count, Bytes: bytes})
		return
	}
	b.pvPort.ReceiveFromWire(nic.Batch{Dst: b.pv.MAC(), Count: count, Bytes: bytes})
}

// StartMonitor begins miimon-style link/health supervision of the slaves
// (Linux bonding's miimon): every model.MiimonPeriod (100 ms) the active
// VF's health is polled; a sick VF triggers failover to the PV standby, and
// MiimonFailbackTicks consecutive healthy polls on the standby trigger
// failback.
func (b *Bond) StartMonitor() {
	b.StopMonitor()
	b.monitor = sim.NewTicker(b.hv.Engine(), model.MiimonPeriod, "bond:miimon", b.poll)
}

// StopMonitor halts health supervision.
func (b *Bond) StopMonitor() {
	if b.monitor != nil {
		b.monitor.Stop()
		b.monitor = nil
	}
}

// Monitoring reports whether the health monitor is running.
func (b *Bond) Monitoring() bool { return b.monitor != nil }

func (b *Bond) poll(now units.Time) {
	b.hv.ChargeGuest(b.dom, 1500) // health poll
	healthy := b.vf != nil && b.vf.Healthy()
	switch {
	case b.activeVF && !healthy:
		b.upStreak = 0
		b.FaultFailovers++
		b.hv.Tracer.Emitf(now, "bond", "failover",
			"VF slave unhealthy, switching to PV (outage %v)", model.FaultFailoverOutage)
		b.FailoverToPV(model.FaultFailoverOutage)
		if b.vf != nil {
			b.vf.TryRecover()
		}
	case !b.activeVF && b.vf != nil:
		if !healthy {
			b.upStreak = 0
			b.vf.TryRecover()
			return
		}
		b.upStreak++
		if b.upStreak >= model.MiimonFailbackTicks {
			b.upStreak = 0
			b.Failbacks++
			b.hv.Tracer.Emitf(now, "bond", "failback", "VF slave healthy again")
			b.ActivateVF(b.vf)
		}
	}
}

// FailoverToPV switches the active slave to the PV NIC, losing traffic for
// the outage window — the first step of DNIS migration, triggered by the
// virtual hot-removal event.
func (b *Bond) FailoverToPV(outage units.Duration) {
	if !b.activeVF {
		return
	}
	b.activeVF = false
	b.outageUntil = b.hv.Engine().Now().Add(outage)
	b.hv.ChargeGuest(b.dom, 40000) // slave switch, gratuitous ARP
}

// DetachVF finishes the hot removal: the guest shuts the VF driver down
// ("the guest OS shuts down the VF driver instance, in response to the hot
// removal event, to eliminate hardware stickiness").
func (b *Bond) DetachVF() {
	if b.vf != nil {
		b.vf.Detach()
		b.vf = nil
	}
}

// ActivateVF installs a (new) VF slave and makes it active — the hot
// add-on at the target platform. The brief switch-back outage is much
// smaller than failover and modeled as zero.
func (b *Bond) ActivateVF(vf *VFDriver) {
	b.vf = vf
	b.activeVF = true
	b.hv.ChargeGuest(b.dom, 40000)
}
