package drivers

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/interrupts"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// VFDriver is the guest's virtual-function driver (the paper's igbvf-class
// driver, "VF driver version 0.9.5"). Its ISR implements the §5 critical
// path: optional MSI mask (2.6.18 kernels), NAPI drain, stack delivery,
// non-EOI APIC traffic, EOI, optional unmask. Its coalescing policy
// programs the VF's EITR, including the paper's AIC (§5.3).
type VFDriver struct {
	hv   *vmm.Hypervisor
	dom  *vmm.Domain
	port *nic.Port
	vf   int

	queue   *nic.Queue
	recv    *guest.NetReceiver
	binding *vmm.MSIBinding
	policy  netstack.ITRPolicy
	sampler *sim.Ticker

	mac      nic.MAC
	attached bool
	vconfig  *vmm.VirtualConfig

	// samplePkts counts packets drained from the ring since the last AIC
	// sample — the driver-level pps observation of eq. (3), taken before
	// any socket-layer drops.
	samplePkts int64

	// Mailbox request/ack protocol state (§4.2 made robust): at most one
	// outstanding request, retransmitted on timeout with exponential
	// backoff until MailboxMaxAttempts, then the channel is declared dead.
	mboxPending  *nic.Message
	mboxAttempts int
	mboxTimer    sim.Handle
	mboxBacklog  []nic.Message
	mboxDead     bool

	// reinitInFlight guards the FLR quiesce window of Reinit.
	reinitInFlight bool
	// lastWatchdog rate-limits watchdog-initiated resets; watchdogArmed
	// distinguishes "never fired" from "fired at sim-time zero" (a zero
	// timestamp is a legitimate firing time, not a sentinel).
	lastWatchdog  units.Time
	watchdogArmed bool

	// MACConfirmed reflects mailbox acknowledgment from the PF driver.
	MACConfirmed bool
	// MboxRetries counts request retransmissions after a timeout.
	MboxRetries int64
	// MboxFailures counts requests abandoned after retry exhaustion.
	MboxFailures int64
	// Reinits counts FLR-based driver re-initializations.
	Reinits int64

	// Mailbox metric counters ("mailbox.retries" etc.), shared across VFs
	// through the port's registry; nil when metrics are off.
	obsRetries  *obs.Counter
	obsTimeouts *obs.Counter
	obsFailures *obs.Counter
	// obsITR mirrors the last programmed throttle interval in µs.
	obsITR *obs.Gauge
}

// VFConfig parameterizes driver attach.
type VFConfig struct {
	MAC    nic.MAC
	Policy netstack.ITRPolicy // nil → the VF driver default (fixed 2 kHz)
}

// AttachVFDriver initializes the VF driver in dom against VF index vf of
// port. The VF must already be enabled by the PF driver and assigned to the
// domain (IOMMU context bound) by the host.
func AttachVFDriver(hv *vmm.Hypervisor, dom *vmm.Domain, port *nic.Port, vf int, recv *guest.NetReceiver, cfg VFConfig) (*VFDriver, error) {
	if vf < 0 || vf >= port.NumVFs() {
		return nil, fmt.Errorf("drivers: no VF %d on %s", vf, port.Name())
	}
	q := port.VFQueue(vf)
	fn := q.Function()
	if !fn.Config().Present() {
		return nil, fmt.Errorf("drivers: VF %d of %s not enabled", vf, port.Name())
	}
	if !hv.IOMMU().Attached(uint16(fn.RID())) {
		return nil, fmt.Errorf("drivers: VF %d of %s not assigned to a domain", vf, port.Name())
	}
	if cfg.Policy == nil {
		cfg.Policy = netstack.FixedITR(model.DefaultITRHz)
	}
	d := &VFDriver{
		hv: hv, dom: dom, port: port, vf: vf,
		queue: q, recv: recv, policy: cfg.Policy, mac: cfg.MAC,
		obsRetries:  port.Obs.Counter("mailbox.retries"),
		obsTimeouts: port.Obs.Counter("mailbox.timeouts"),
		obsFailures: port.Obs.Counter("mailbox.failures"),
		obsITR:      port.Obs.Gauge("vf." + q.Name() + ".itr_us"),
	}
	// Attribute this queue's hop latencies to the owning VM as well.
	q.SetVMTrack(obs.NewPathTrack(port.Obs, "path.vm."+dom.Name))

	// Driver probe: the guest enumerates the virtual config space IOVM
	// presents (§4.1), finds the MSI capability and enables it — every
	// access below is mediated (and charged) by the IOVM.
	vc, err := hv.IOVMgr().Expose(dom, fn)
	if err != nil {
		return nil, err
	}
	d.vconfig = vc
	if vid := vc.Read16(pcie.RegVendorID); vid != 0x8086 {
		return nil, fmt.Errorf("drivers: unexpected vendor %#04x", vid)
	}
	vc.Write16(pcie.RegCommand, pcie.CmdMemSpace|pcie.CmdBusMaster)
	if msiOff := vc.FindCapability(pcie.CapIDMSI); msiOff != 0 {
		// Enable MSI through the mediated space.
		ctl := vc.Read16(msiOff + 2)
		vc.Write16(msiOff+2, ctl|pcie.MSICtlEnable)
	}

	// Device init through BAR registers, as igbvf would: reset first (BAR0
	// is direct-mapped into the guest, so these writes cost no VMM
	// intervention), the rest in programDevice below.
	q.InstallRegisters()
	hv.GuestMMIOWrite(dom, fn, 0, nic.RegCTRL, nic.CtrlReset)

	binding, err := hv.BindGuestMSIFromRID(dom, fmt.Sprintf("%s/vf%d", port.Name(), vf), uint16(fn.RID()), d.isr)
	if err != nil {
		return nil, err
	}
	d.binding = binding
	q.Sink = func(*nic.Queue) { binding.PhysicalMSI() }
	q.DMACheck = hv.DMACheckFor(dom, fn)

	port.Mailbox().SetVFHandler(vf, d.onMailbox)
	d.attached = true
	d.programDevice()
	// Request our MAC through the mailbox; the PF driver polices it. Goes
	// through the ack protocol: timeouts retransmit, exhaustion gives up.
	d.request(nic.Message{Kind: nic.MsgSetMAC, VF: vf, Arg: uint64(cfg.MAC)})

	if cfg.Policy.Adaptive() {
		d.sampler = sim.NewTicker(hv.Engine(), model.AICSamplePeriod, "vf:aic", func(units.Time) {
			pps := float64(d.samplePkts) / model.AICSamplePeriod.Seconds()
			d.samplePkts = 0
			d.applyRate(d.policy.Rate(pps))
			hv.ChargeGuest(dom, 800) // sampling work
		})
	}
	return d, nil
}

// programDevice performs the register-level device setup shared by first
// attach and post-FLR re-initialization: ring length, MSI-X entry 0 (the
// address/data writes to the table page trap to the hypervisor), the
// interrupt throttle at the driver's line-rate startup assumption, and
// interrupt enable.
func (d *VFDriver) programDevice() {
	fn := d.queue.Function()
	d.hv.GuestMMIOWrite(d.dom, fn, 0, nic.RegRDLEN0, uint64(model.RxRingEntries))
	msg := interrupts.NewMSIMessage(d.binding.Vector())
	d.hv.GuestMMIOWrite(d.dom, fn, nic.MSIXTableBAR, 0, msg.Addr&0xffffffff)
	d.hv.GuestMMIOWrite(d.dom, fn, nic.MSIXTableBAR, 4, msg.Addr>>32)
	d.hv.GuestMMIOWrite(d.dom, fn, nic.MSIXTableBAR, 8, uint64(msg.Data))
	d.applyRate(d.policy.Rate(model.PacketsPerSecond(model.LineRateUDP, model.FrameSize)))
	d.queue.SetIntrEnabled(true)
}

// Queue exposes the VF's receive queue.
func (d *VFDriver) Queue() *nic.Queue { return d.queue }

// MAC reports the interface MAC.
func (d *VFDriver) MAC() nic.MAC { return d.mac }

// Attached reports whether the driver instance is live.
func (d *VFDriver) Attached() bool { return d.attached }

// applyRate programs the EITR register (microsecond granularity, the
// hardware's own unit) through MMIO.
func (d *VFDriver) applyRate(hz float64) {
	us := uint64(0)
	if hz > 0 {
		us = uint64(1e6 / hz)
	}
	d.obsITR.Set(float64(us))
	d.hv.GuestMMIOWrite(d.dom, d.queue.Function(), 0, nic.RegEITR0, us)
}

// isr is the §5 critical path.
func (d *VFDriver) isr() {
	if !d.attached {
		return
	}
	k := d.dom.Kernel
	if k.MasksMSIAtRuntime {
		// "masks the interrupt at the very beginning of each MSI interrupt
		// handling" (§5.1): a vector-control write to the MSI-X table page,
		// which the hypervisor traps.
		d.hv.GuestMMIOWrite(d.dom, d.queue.Function(), nic.MSIXTableBAR,
			msixVectCtrl0, nic.MSIXVectorCtlMask)
	}
	d.recv.OnInterrupt()
	n, bytes := d.queue.Drain(-1) // NAPI poll
	if n > 0 {
		d.samplePkts += int64(n)
		d.recv.ObserveLatency(d.queue.LastDrainWait())
		d.recv.DeliverBatch(n, bytes)
		// Return the buffers: advance the receive tail pointer (BAR0,
		// direct-mapped, free).
		d.hv.GuestMMIOWrite(d.dom, d.queue.Function(), 0, nic.RegRDT0, uint64(n))
	}
	d.hv.GuestAPICAccess(d.dom, model.OtherAPICPerMSI)
	d.hv.GuestEOI(d.dom)
	if k.MasksMSIAtRuntime {
		// "unmasks the interrupt after it completes" (§5.1).
		d.hv.GuestMMIOWrite(d.dom, d.queue.Function(), nic.MSIXTableBAR,
			msixVectCtrl0, 0)
	}
}

// msixVectCtrl0 is the vector-control dword of MSI-X table entry 0.
const msixVectCtrl0 = 12

// request posts a VF→PF configuration request through the ack protocol:
// at most one outstanding request, a per-message timeout with exponential
// backoff, and bounded retries. Requests issued while another is pending
// are queued behind it.
func (d *VFDriver) request(msg nic.Message) {
	if d.mboxPending != nil {
		d.mboxBacklog = append(d.mboxBacklog, msg)
		return
	}
	cp := msg
	d.mboxPending = &cp
	d.mboxAttempts = 0
	d.sendPending()
}

func (d *VFDriver) sendPending() {
	d.mboxAttempts++
	// A busy slot means a previous (possibly lost) message still sits in
	// the hardware slot; the timeout path retries once it drains.
	_ = d.port.Mailbox().SendToPF(*d.mboxPending)
	timeout := model.MailboxTimeout << uint(d.mboxAttempts-1)
	d.mboxTimer = d.hv.Engine().After(timeout, "vf:mbox:timeout", d.onMboxTimeout)
}

func (d *VFDriver) onMboxTimeout() {
	if !d.attached || d.mboxPending == nil {
		return
	}
	d.obsTimeouts.Inc()
	if d.mboxAttempts >= model.MailboxMaxAttempts {
		// Retry exhaustion: the driver gives up and reports the channel
		// dead (Healthy goes false; the watchdog may later FLR).
		d.MboxFailures++
		d.obsFailures.Inc()
		d.mboxDead = true
		d.port.Tracer.Emitf(d.hv.Engine().Now(), "vf", "mbox-dead",
			"%s: %s abandoned after %d attempts",
			d.queue.Name(), d.mboxPending.Kind, d.mboxAttempts)
		d.mboxPending = nil
		d.mboxBacklog = nil
		return
	}
	d.MboxRetries++
	d.obsRetries.Inc()
	d.hv.ChargeGuest(d.dom, 2000) // retransmit path
	d.sendPending()
}

// completeRequest matches an Ack/Nack (whose Arg echoes the request kind)
// against the pending request, stops the retry clock and starts the next
// queued request.
func (d *VFDriver) completeRequest(req nic.MsgKind) {
	if d.mboxPending == nil || d.mboxPending.Kind != req {
		return // stale or unsolicited response
	}
	d.mboxTimer.Cancel()
	d.mboxPending = nil
	d.mboxAttempts = 0
	d.mboxDead = false // the channel evidently works
	if len(d.mboxBacklog) > 0 {
		next := d.mboxBacklog[0]
		d.mboxBacklog = d.mboxBacklog[1:]
		d.mboxPending = &next
		d.mboxAttempts = 0
		d.sendPending()
	}
}

// abortMbox drops all mailbox protocol state (reset/teardown paths).
func (d *VFDriver) abortMbox() {
	d.mboxTimer.Cancel()
	d.mboxPending = nil
	d.mboxBacklog = nil
	d.mboxAttempts = 0
	d.mboxDead = false
}

func (d *VFDriver) onMailbox(msg nic.Message) {
	d.hv.ChargeGuest(d.dom, 3000) // mailbox doorbell handling
	switch msg.Kind {
	case nic.MsgAck, nic.MsgNack:
		req := nic.MsgKind(msg.Arg)
		if req == nic.MsgSetMAC {
			d.MACConfirmed = msg.Kind == nic.MsgAck
		}
		d.completeRequest(req)
	case nic.MsgDeviceReset:
		// §4.2: "impending global device reset" — quiesce and schedule a
		// full re-initialization through FLR.
		d.Reinit()
	}
}

// Reinit re-initializes the driver after a device-level reset: abandon any
// mailbox transaction (the hardware slots died with the reset), issue a
// Function-Level Reset through the mediated config space, wait out the
// PCIe quiesce window, then reprogram the device and re-request the MAC.
func (d *VFDriver) Reinit() {
	if !d.attached || d.reinitInFlight {
		return
	}
	d.reinitInFlight = true
	d.Reinits++
	d.MACConfirmed = false
	d.abortMbox()
	fn := d.queue.Function()
	d.port.Tracer.Emitf(d.hv.Engine().Now(), "vf", "reinit",
		"%s: FLR + driver reset", fn.Name())
	if off := d.vconfig.FindCapability(pcie.CapIDPCIExp); off != 0 {
		d.vconfig.Write16(off+pcie.PCIeDevCtlOff, pcie.PCIeDevCtlFLR)
	}
	d.hv.ChargeGuest(d.dom, 50000) // igbvf reset path
	d.hv.Engine().After(model.FLRLatency, "vf:reinit", func() {
		d.reinitInFlight = false
		if !d.attached {
			return
		}
		d.programDevice()
		d.request(nic.Message{Kind: nic.MsgSetMAC, VF: d.vf, Arg: uint64(d.mac)})
	})
}

// Healthy is the health check the bonding monitor polls: the driver is
// live, the mailbox channel works, the function answers config cycles (a
// surprise-removed VF reads all-ones), the link is up, and the queue is
// neither wedged nor mid-reset.
func (d *VFDriver) Healthy() bool {
	if !d.attached || d.mboxDead || d.reinitInFlight {
		return false
	}
	if !d.port.LinkUp() {
		return false
	}
	if d.queue.Stalled() || !d.queue.IntrEnabled() {
		return false
	}
	return d.vconfig.Read16(pcie.RegVendorID) != 0xffff
}

// MboxDead reports whether the mailbox channel was declared dead after
// retry exhaustion (the explicit give-up state the watchdog-liveness
// invariant accepts in lieu of recovery).
func (d *VFDriver) MboxDead() bool { return d.mboxDead }

// ReinitInFlight reports whether an FLR re-initialization is in progress.
func (d *VFDriver) ReinitInFlight() bool { return d.reinitInFlight }

// TryRecover is the driver's watchdog: when the device looks dead but is
// still reachable, reset it (FLR + reinit), rate-limited so a persistently
// broken function is not hammered every poll. Recovery from link-down or
// surprise removal is not the function's to fix, so those cases wait.
func (d *VFDriver) TryRecover() {
	if !d.attached || d.reinitInFlight {
		return
	}
	if !d.port.LinkUp() {
		return
	}
	if d.vconfig.Read16(pcie.RegVendorID) == 0xffff {
		return // surprise-removed: nothing to reset until it returns
	}
	if !d.mboxDead && d.queue.IntrEnabled() && !d.queue.Stalled() {
		return // nothing wrong at the device level
	}
	now := d.hv.Engine().Now()
	if d.watchdogArmed && now.Sub(d.lastWatchdog) < model.WatchdogResetBackoff {
		return
	}
	d.lastWatchdog = now
	d.watchdogArmed = true
	d.port.Tracer.Emitf(now, "vf", "watchdog", "%s: reset", d.queue.Name())
	d.Reinit()
}

// Transmit sends a netperf-style message toward dst via the NIC. Traffic to
// a MAC on the same port is switched internally (§6.3); the sender pays the
// syscall/stack cost plus any backpressure from the internal DMA engine.
// It reports the packets queued and the sender-visible backlog.
func (d *VFDriver) Transmit(sender *guest.NetSender, dst nic.MAC, msgSize, frame units.Size) (int, units.Duration) {
	if !d.attached {
		return 0, 0
	}
	pkts := sender.SendMessage(msgSize, frame)
	if pkts == 0 {
		return 0, 0
	}
	b := nic.Batch{Dst: dst, Src: d.mac, Count: pkts, Bytes: msgSize}
	if _, ok := d.port.SendInternal(d.queue, b); !ok {
		return 0, 0
	}
	return pkts, d.port.InternalBacklog()
}

// TransmitExternal sends a message out on the physical wire (toward the
// client machine): sender-side syscall/stack cost, TX descriptors, then
// line-rate serialization. Reports packets queued and the line backlog.
func (d *VFDriver) TransmitExternal(sender *guest.NetSender, dst nic.MAC, msgSize, frame units.Size) (int, units.Duration) {
	if !d.attached {
		return 0, 0
	}
	pkts := sender.SendMessage(msgSize, frame)
	if pkts == 0 {
		return 0, 0
	}
	if !d.port.TransmitToWire(nic.Batch{Dst: dst, Src: d.mac, Count: pkts, Bytes: msgSize}) {
		return 0, d.port.TxBacklog()
	}
	return pkts, d.port.TxBacklog()
}

// JoinVLAN asks the PF driver (over the mailbox) to add a (MAC, VLAN)
// filter for this VF, so tagged traffic classifies to its queue.
func (d *VFDriver) JoinVLAN(vlan uint16) error {
	if !d.attached {
		return fmt.Errorf("drivers: driver detached")
	}
	d.request(nic.Message{Kind: nic.MsgSetVLAN, VF: d.vf, Arg: uint64(vlan)})
	return nil
}

// Detach is the guest's response to virtual hot removal (§4.4): quiesce the
// queue, release the vector, drop the mailbox handler. Safe to call twice.
func (d *VFDriver) Detach() {
	if !d.attached {
		return
	}
	d.attached = false
	if d.sampler != nil {
		d.sampler.Stop()
	}
	d.abortMbox()
	d.queue.SetIntrEnabled(false)
	d.queue.Sink = nil
	d.queue.DMACheck = nil
	d.binding.Unbind()
	// Tell the PF driver we are gone so it releases our MAC filter.
	d.port.Mailbox().SendToPF(nic.Message{Kind: nic.MsgReset, VF: d.vf})
	d.port.Mailbox().ClearVFHandler(d.vf)
	d.hv.GuestConfigAccess(d.dom, 8) // teardown config writes
}
