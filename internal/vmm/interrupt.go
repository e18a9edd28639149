package vmm

import (
	"fmt"

	"repro/internal/interrupts"
	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/units"
)

// This file implements the interrupt-delivery critical path of §4.1/§5:
// physical MSI → VM-exit → vector lookup → virtual interrupt injection →
// guest ISR, with the §5 costs charged at each step.

// MSIBinding ties a device interrupt source to a guest handler.
type MSIBinding struct {
	hv     *Hypervisor
	dom    *Domain
	vector interrupts.Vector
	port   interrupts.EventChannelPort // PVM path
	source string
	// rid, when non-zero, is the requester the IOMMU's interrupt-remap
	// entry was programmed for; deliveries are validated against it.
	rid uint16
}

// Vector reports the machine vector allocated to this binding.
func (b *MSIBinding) Vector() interrupts.Vector { return b.vector }

// BindGuestMSIFromRID allocates a machine vector for a device interrupt
// source owned by dom and registers the guest's handler. The handler runs in
// guest context whenever the (virtual) interrupt is delivered. A non-zero
// rid also programs interrupt remapping: the IOMMU lets only that requester
// signal the allocated vector (the VT-d side of safe device assignment).
//
// HVM: physical MSI → VM-exit → inject into virtual LAPIC → handler.
// PVM: physical MSI → VM-exit → event-channel notify → upcall handler.
// Native: the LAPIC is real; the handler runs with no VMM cost.
func (h *Hypervisor) BindGuestMSIFromRID(d *Domain, source string, rid uint16, handler func()) (*MSIBinding, error) {
	v, err := h.vectors.Alloc(fmt.Sprintf("%s:%s", d.Name, source))
	if err != nil {
		return nil, err
	}
	h.Tracer.Emitf(h.eng.Now(), "irq", "bind", "%s vector=%d dom=%s", source, v, d.Name)
	b := &MSIBinding{hv: h, dom: d, vector: v, source: source, rid: rid}
	if rid != 0 {
		h.mmu.ProgramIRTE(uint8(v), rid)
	}
	switch d.Type {
	case HVM, Native:
		d.isrs[v] = handler
	case PVM, Dom0:
		port, err := d.events.Bind(source)
		if err != nil {
			h.vectors.Free(v)
			return nil, err
		}
		b.port = port
		d.upcalls[port] = handler
	}
	return b, nil
}

// Unbind releases the binding (driver teardown / hot removal).
func (b *MSIBinding) Unbind() {
	if b.rid != 0 {
		b.hv.mmu.ClearIRTE(uint8(b.vector))
	}
	b.hv.vectors.Free(b.vector)
	switch b.dom.Type {
	case HVM, Native:
		b.dom.isrs[b.vector] = nil
	case PVM, Dom0:
		b.dom.events.Unbind(b.port)
		b.dom.upcalls[b.port] = nil
	}
}

// PhysicalMSI is the entry point a device's interrupt lands on: Xen fields
// the physical interrupt, identifies the owning guest by vector (§4.1), and
// injects the virtual interrupt.
func (b *MSIBinding) PhysicalMSI() {
	h, d := b.hv, b.dom
	if b.rid != 0 {
		// Interrupt remapping: reject messages whose requester does not
		// own the vector.
		if err := h.mmu.ValidateMSI(b.rid, uint8(b.vector)); err != nil {
			h.msiRejected.Inc()
			return
		}
	}
	if d.paused {
		// Interrupt stays pending until unpause; model as retry on resume.
		h.msiWhilePaused.Inc()
		return
	}
	switch d.Type {
	case Native:
		// Bare metal: no exit, just the hardware interrupt dispatch cost,
		// charged to the native domain itself.
		h.meter.Charge(d.acct.slot(h.meter, "irq"), nativeIRQDispatchCycles)
		if isr := d.isrs[b.vector]; isr != nil {
			isr()
		}
		return
	case HVM:
		h.ChargeXen(d, "vmexit", model.ExtIntExitCycles)
		h.recordExit(exitExtInt, model.ExtIntExitCycles)
		if d.lapic.Inject(b.vector) {
			if _, deliverable := d.lapic.Pending(); deliverable {
				d.lapic.Ack()
				if isr := d.isrs[b.vector]; isr != nil {
					isr()
				}
			}
		}
	case PVM, Dom0:
		h.ChargeXen(d, "vmexit", model.ExtIntExitCycles)
		h.recordExit(exitExtInt, model.ExtIntExitCycles)
		h.NotifyEvent(d, b.port)
	}
}

// nativeIRQDispatchCycles is the bare-metal interrupt entry cost (IDT
// dispatch + APIC ack), folded into GuestPerInterruptCycles elsewhere but
// needed separately for the native baseline.
const nativeIRQDispatchCycles units.Cycles = 600

// BindEventChannel allocates an event-channel port on a PVM/dom0 domain and
// registers the guest's upcall handler (the netfront driver's interrupt).
func (h *Hypervisor) BindEventChannel(d *Domain, source string, handler func()) (interrupts.EventChannelPort, error) {
	if d.events == nil {
		return 0, fmt.Errorf("vmm: domain %s (%s) has no event channels", d.Name, d.Type)
	}
	port, err := d.events.Bind(source)
	if err != nil {
		return 0, err
	}
	d.upcalls[port] = handler
	return port, nil
}

// EOICost reports the current per-EOI hypervisor cost under the active
// optimization switches — used by paths that model EOI cycles without
// touching LAPIC state (PV-on-HVM event delivery).
func (h *Hypervisor) EOICost() units.Cycles {
	if !h.opts.EOIAccel {
		return model.EOIEmulateCycles
	}
	c := model.EOIFastCycles
	if h.opts.EOICheckInstruction {
		c += model.EOICheckCycles
	}
	return c
}

// NotifyEvent signals an event channel toward a PVM/dom0 domain and runs the
// upcall (§6.4's cheap paravirtual interrupt controller).
func (h *Hypervisor) NotifyEvent(d *Domain, port interrupts.EventChannelPort) {
	if d.events == nil {
		return
	}
	h.ChargeXen(d, "evtchn", model.EvtchnSendCycles)
	if d.events.Notify(port) && !d.paused {
		h.ChargeGuest(d, "upcall", model.EvtchnGuestCycles)
		d.events.Consume(port)
		if up := d.upcalls[port]; up != nil {
			up()
		}
	}
}

// ---- Guest-visible virtualization events (called by guest/driver code) ----

// GuestMSIMaskWrite models the guest writing the MSI mask or unmask
// register. For an HVM guest this traps; where it is emulated is the §5.1
// optimization. Native and PVM guests pay nothing here (PVM masks event
// channels with a plain memory write).
func (h *Hypervisor) GuestMSIMaskWrite(d *Domain) {
	if d.Type != HVM {
		return
	}
	h.msiMaskWrites.Inc()
	if h.opts.MaskAccel {
		// Emulated entirely in the hypervisor.
		h.ChargeXen(d, "msi-mask", model.MaskInHypervisorCycles)
		h.recordExit(exitMSIMask, model.MaskInHypervisorCycles)
		return
	}
	// Forwarded to the user-level device model in dom0: domain context
	// switch plus task switches within dom0 (§5.1).
	h.ChargeGuest(d, "msi-mask", model.MaskExitGuestCycles)
	h.ChargeXen(d, "msi-mask", model.MaskViaDeviceModelXenCycles)
	h.ChargeDom0("devicemodel", model.MaskViaDeviceModelDom0Cycles)
	h.recordExit(exitMSIMask, model.MaskViaDeviceModelXenCycles)
}

// GuestEOI models the guest's end-of-interrupt write. For HVM this is an
// APIC-access VM-exit: full fetch-decode-emulate, or the Exit-qualification
// fast path with EOIAccel (§5.2). It returns the next deliverable vector's
// handler-present flag via chained delivery (handled internally).
func (h *Hypervisor) GuestEOI(d *Domain) {
	switch d.Type {
	case HVM:
		cost := model.EOIEmulateCycles
		if h.opts.EOIAccel {
			cost = model.EOIFastCycles
			switch {
			case h.opts.EOICheckInstruction && d.Kernel.ComplexEOIWriter:
				// The check catches the complex instruction and falls
				// back to full fetch-decode-emulate: correct, but the
				// whole saving is gone for this exit.
				cost = model.EOICheckCycles + model.EOIEmulateCycles
			case h.opts.EOICheckInstruction:
				cost += model.EOICheckCycles
			case d.Kernel.ComplexEOIWriter:
				// §5.2's risk realized: the bypass "may not be able to
				// correctly emulate the additional state transition
				// leading to guest failure". Contained within the guest.
				d.corrupted = true
				h.eoiMisemulations.Inc()
			}
		}
		h.ChargeXen(d, "apic", cost)
		h.recordExit(exitAPICEOI, cost)
		if next, ok := d.lapic.EOI(); ok {
			d.lapic.Ack()
			if isr := d.isrs[next]; isr != nil && !d.paused {
				isr()
			}
		}
	case Native:
		// Real LAPIC EOI: a register write, folded into IRQ cost.
		d.lapic.EOI()
	case PVM, Dom0:
		// No EOI in the event-channel world.
	}
}

// GuestAPICAccess models n non-EOI APIC accesses (TPR updates, timer
// reprogramming). Always the full emulation path — the §5.2 fast path only
// applies to EOI writes.
func (h *Hypervisor) GuestAPICAccess(d *Domain, n float64) {
	if d.Type != HVM || n <= 0 {
		return
	}
	c := units.Cycles(n * float64(model.OtherAPICAccessCycles))
	h.ChargeXen(d, "apic", c)
	h.recordExitN(exitAPICOther, int64(n+0.5), c)
}

// GuestHypercall charges a PVM hypercall (grant ops, event ops).
func (h *Hypervisor) GuestHypercall(d *Domain, c units.Cycles) {
	h.ChargeXen(d, "hypercall", c)
	h.recordExit(exitHypercall, c)
}

// GuestMMIOWrite performs a guest MMIO write to an assigned function. Only
// the MSI-X table BAR is trapped (the hypervisor must interpose on vector
// masking and message programming); every other BAR of a passthrough device
// is mapped straight into the guest, so writes there cost nothing extra —
// that is the whole point of Direct I/O. A trapped vector-control write is
// exactly the §5.1 mask/unmask path.
func (h *Hypervisor) GuestMMIOWrite(d *Domain, fn *pcie.Function, bar int, off uint64, val uint64) {
	if msix, ok := pcie.MSIXCapAt(fn.Config()); ok && bar == msix.TableBIR() && d.Type != Native {
		if off%16 == 12 {
			// Vector control (mask bit): the hot register.
			h.GuestMSIMaskWrite(d)
		} else if d.Type == HVM {
			// Address/data programming: a plain trapped write, emulated in
			// the hypervisor (rare, init only).
			h.ChargeXen(d, "vmexit", 2000)
			h.recordExit(exitMSIMask, 2000)
		}
	}
	fn.MMIOWrite(bar, off, val)
}

// ---- Device model / IOVM ----

// GuestConfigAccess models the guest touching a VF's configuration space:
// IOVM "presents a virtual full configuration space for each VF" (§4.1).
// For HVM the access traps to the device model in dom0; for PVM it goes
// through PCIback. Used on the init path, not per packet.
func (h *Hypervisor) GuestConfigAccess(d *Domain, writes int) {
	const perAccessDom0 = 12000 // device-model round trip
	const perAccessPVM = 3000   // pciback in-kernel
	switch d.Type {
	case HVM:
		h.ChargeDom0("devicemodel", units.Cycles(writes)*perAccessDom0)
		h.ChargeXen(d, "vmexit", units.Cycles(writes)*2000)
	case PVM:
		h.ChargeDom0("pciback", units.Cycles(writes)*perAccessPVM)
	}
	h.configAccesses.Add(int64(writes))
}

// ---- Virtual hot-plug (§4.4) ----

// HotplugRemove signals a virtual hot-removal of fn to the guest through
// the virtual ACPI hot-plug controller. The guest's HotplugHandler runs
// after the signalling latency; the caller's done callback (if any) runs
// after the handler, modeling the guest completing the removal.
func (h *Hypervisor) HotplugRemove(d *Domain, fn interface{ Name() string }, done func()) {
	h.Tracer.Emitf(h.eng.Now(), "hotplug", "remove-signalled", "dom=%s", d.Name)
	h.eng.After(model.HotplugEventLatency, "vmm:hotremove", func() {
		h.ChargeDom0("devicemodel", 20000) // ACPI GPE emulation
		if d.HotplugHandler != nil {
			d.HotplugHandler(HotplugEvent{Remove: true})
		}
		if done != nil {
			done()
		}
	})
}

// HotplugAdd signals a virtual hot-add event.
func (h *Hypervisor) HotplugAdd(d *Domain, done func()) {
	h.Tracer.Emitf(h.eng.Now(), "hotplug", "add-signalled", "dom=%s", d.Name)
	h.eng.After(model.HotplugEventLatency, "vmm:hotadd", func() {
		h.ChargeDom0("devicemodel", 20000)
		if d.HotplugHandler != nil {
			d.HotplugHandler(HotplugEvent{Remove: false})
		}
		if done != nil {
			done()
		}
	})
}

// ---- Baseline periodic costs ----

// ChargeTimerBaseline charges one measurement window's worth of guest timer
// ticks: each tick is an interrupt delivery with the flavour-appropriate
// virtualization cost. Applied analytically (1 kHz × 60 VMs × seconds of
// events would dominate the event queue for no added fidelity).
func (h *Hypervisor) ChargeTimerBaseline(d *Domain, window units.Duration) {
	ticks := float64(model.TimerTickHz) * window.Seconds()
	if ticks <= 0 {
		return
	}
	switch d.Type {
	case HVM:
		extCycles := units.Cycles(ticks * float64(model.ExtIntExitCycles))
		h.ChargeXen(d, "timer", extCycles)
		h.recordExitN(exitExtInt, int64(ticks), extCycles)
		eoi := h.EOICost()
		eoiCycles := units.Cycles(ticks * float64(eoi))
		h.ChargeXen(d, "apic", eoiCycles)
		h.recordExitN(exitAPICEOI, int64(ticks), eoiCycles)
		h.GuestAPICAccess(d, ticks*model.OtherAPICPerTick)
		h.ChargeGuest(d, "timer", units.Cycles(ticks*float64(model.TimerHandlerCycles)))
	case PVM:
		h.ChargeXen(d, "timer", units.Cycles(ticks*float64(model.EvtchnSendCycles)))
		h.ChargeGuest(d, "timer", units.Cycles(ticks*float64(model.TimerHandlerCycles+model.EvtchnGuestCycles)))
	case Native, Dom0:
		h.meter.Charge(d.acct.slot(h.meter, "timer"), units.Cycles(ticks*float64(model.TimerHandlerCycles)))
	}
}

// ChargeDom0Baseline charges dom0's housekeeping for a window: a fixed
// share plus a per-guest residual that depends on guest flavour.
func (h *Hypervisor) ChargeDom0Baseline(window units.Duration) {
	freq := h.meter.System().Freq
	base := model.Dom0BaselinePct / 100 * float64(freq.CyclesIn(window))
	h.ChargeDom0("housekeeping", units.Cycles(base))
	for _, d := range h.Domains() {
		var pct float64
		switch d.Type {
		case HVM:
			pct = model.Dom0PerHVMGuestPct
		case PVM:
			pct = model.Dom0PerPVMGuestPct
		default:
			continue
		}
		h.ChargeDom0("perguest", units.Cycles(pct/100*float64(freq.CyclesIn(window))))
	}
}
