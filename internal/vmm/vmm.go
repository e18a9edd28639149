// Package vmm models a Xen-like hypervisor at the granularity the paper
// measures: domains (dom0, HVM, PVM guests), VM-exit dispatch with
// calibrated cycle costs, virtual-LAPIC emulation for HVM guests (including
// the §5.1 MSI mask/unmask path and the §5.2 EOI fast path), event channels
// for PVM guests, the IOVM/device-model intervention costs in dom0, PCI
// passthrough with IOMMU attachment, and the virtual ACPI hot-plug
// controller DNIS depends on.
//
// The hypervisor does not execute guest code. Guest behaviour (drivers, the
// network stack) lives in internal/guest and internal/drivers and calls back
// into the hypervisor for every virtualization event, which is where cycles
// are charged — exactly how the paper attributes CPU time to guest / dom0 /
// Xen.
package vmm

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/interrupts"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

// Flavor identifies the underlying VMM. §4 claims the architecture is
// VMM-agnostic ("the implementation is ported from Xen to KVM, without code
// modification to the PF and VF drivers"); the simulator models both so the
// portability claim is testable: the driver code paths are byte-identical,
// only the hypervisor personality differs.
type Flavor int

// Flavors.
const (
	// Xen: service OS is domain 0; paravirtualized guests exist (event
	// channels); the device model runs as a dom0 user process.
	Xen Flavor = iota
	// KVM: the service OS is the host kernel itself; guests are all
	// hardware VMs (QEMU as the device model in host userspace); no
	// paravirtualized domain type.
	KVM
)

func (f Flavor) String() string {
	if f == KVM {
		return "kvm"
	}
	return "xen"
}

// DomainType distinguishes the virtualization flavours the paper compares.
type DomainType int

// Domain types.
const (
	Dom0   DomainType = iota
	HVM               // hardware virtual machine: virtual LAPIC, device model
	PVM               // paravirtualized: event channels, pciback
	Native            // no virtualization: baseline of §6.2
)

func (t DomainType) String() string {
	switch t {
	case Dom0:
		return "dom0"
	case HVM:
		return "hvm"
	case PVM:
		return "pvm"
	case Native:
		return "native"
	default:
		return "unknown"
	}
}

// KernelConfig captures the guest-kernel behaviours the paper contrasts.
type KernelConfig struct {
	// MasksMSIAtRuntime: RHEL5U1 (2.6.18) "masks the interrupt at the very
	// beginning of each MSI interrupt handling and unmasks the interrupt
	// after it completes" (§5.1); 2.6.28 does not.
	MasksMSIAtRuntime bool
	// ComplexEOIWriter marks a (hypothetical) kernel that writes EOI with
	// a complex instruction (movs/stos, §5.2: "movs and stos instruction
	// can be used to write EOI and adjust DI register"). The
	// Exit-qualification fast path cannot emulate the extra state
	// transition; without the instruction check this corrupts the guest.
	// The paper notes no commercial OS does this — the flag exists to
	// exercise the §5.2 correctness argument.
	ComplexEOIWriter bool
}

// Kernel presets: linux-2.6.18 (RHEL5U1) and linux-2.6.28.
var (
	KernelRHEL5 = KernelConfig{MasksMSIAtRuntime: true}
	Kernel2628  = KernelConfig{MasksMSIAtRuntime: false}
)

// Optimizations are the three §5 switches (AIC lives in the VF driver).
type Optimizations struct {
	// MaskAccel moves MSI mask/unmask emulation from the dom0 device model
	// into the hypervisor (§5.1).
	MaskAccel bool
	// EOIAccel uses the Exit-qualification fast path for virtual EOI
	// writes instead of fetch-decode-emulate (§5.2).
	EOIAccel bool
	// EOICheckInstruction adds the §5.2 correctness check (fetch the
	// instruction to reject complex EOI writers), costing 1.8 K cycles.
	EOICheckInstruction bool
}

// AllOptimizations enables everything.
var AllOptimizations = Optimizations{MaskAccel: true, EOIAccel: true}

// ExitReason labels VM-exit classes for the Fig. 7 breakdown. It indexes
// the dense ExitTrace, so recording an exit never hashes its reason.
type ExitReason uint8

// Exit reasons.
const (
	ExitExtInt ExitReason = iota
	ExitAPICEOI
	ExitAPICOther
	ExitMSIMask
	ExitHypercall
	numExitReasons
)

// exitNames is each reason's label; exitMetrics is its "vmm.exits.<name>"
// metric segment.
var (
	exitNames   = [numExitReasons]string{"external-interrupt", "apic-access-eoi", "apic-access-other", "msi-mask-unmask", "hypercall"}
	exitMetrics = [numExitReasons]string{"extint", "eoi", "apic_other", "msi_mask", "hypercall"}
)

func (r ExitReason) String() string { return exitNames[r] }

// ExitRecord accumulates count and hypervisor cycles per exit reason.
type ExitRecord struct {
	Count  int64
	Cycles units.Cycles
}

// ExitTrace is the per-reason VM-exit trace, indexed by ExitReason.
type ExitTrace [numExitReasons]ExitRecord

// Domain is one VM (or dom0, or the native pseudo-domain).
type Domain struct {
	ID     int
	Name   string
	Type   DomainType
	Kernel KernelConfig
	Memory *mem.DomainMemory

	lapic  *interrupts.LAPIC
	events *interrupts.EventChannels

	// isrs holds the guest ISR per vector (HVM/Native); upcalls the
	// handler per event-channel port (PVM/dom0).
	isrs    *[256]func()
	upcalls []func()

	// ledger is the domain's CPU ledger in the hypervisor's meter.
	ledger cpu.Ledger

	// HotplugHandler receives virtual ACPI hot-plug events (§4.4).
	HotplugHandler func(ev HotplugEvent)

	assigned []*pcie.Function
	paused   bool
}

// Ledger reports the domain's CPU ledger in the hypervisor's meter.
func (d *Domain) Ledger() cpu.Ledger { return d.ledger }

// Assigned reports the passthrough functions assigned to the domain.
func (d *Domain) Assigned() []*pcie.Function { return d.assigned }

// Paused reports whether the domain is paused (stop-and-copy phase).
func (d *Domain) Paused() bool { return d.paused }

// HotplugEvent is a virtual ACPI hot-plug notification.
type HotplugEvent struct {
	Remove bool // true = removal, false = add
}

// Hypervisor is the machine-wide VMM state.
type Hypervisor struct {
	eng     *sim.Engine
	meter   *cpu.Meter
	fabric  *pcie.Fabric
	mmu     *iommu.IOMMU
	vectors *interrupts.Allocator
	opts    Optimizations
	flavor  Flavor

	domains map[int]*Domain
	nextID  int

	dom0 *Domain
	iovm *IOVM
	// xen is the hypervisor's own CPU ledger.
	xen cpu.Ledger

	// exits is the VM-exit trace backing Fig. 7.
	exits ExitTrace
	// Counters is the hypervisor's own registry of miscellaneous event
	// counts: "assign", "unassign", "msi_rejected", "msi_while_paused",
	// "msi_mask_writes", "eoi_misemulation" and "config_accesses".
	// NewFlavored resolves each one into the fields below.
	Counters                        *obs.Registry
	assigns, unassigns              *obs.Counter
	msiRejected, msiWhilePaused     *obs.Counter
	msiMaskWrites, eoiMisemulations *obs.Counter
	configAccesses                  *obs.Counter
	// Tracer, when set, records control-plane events (assignment,
	// hot-plug, migration pauses, interrupt bindings) for debugging.
	// A nil tracer costs nothing.
	Tracer *obs.Trace

	// Obs, when set, mirrors per-reason exit counts into named counters
	// ("vmm.exits.<reason>"), each registered on its reason's first
	// record. exitCounters caches the instrument per reason.
	Obs          *obs.Registry
	exitCounters [numExitReasons]*obs.Counter
}

// NewFlavored creates a hypervisor of the given flavor bound to the
// simulation engine, meter, fabric and IOMMU, and creates its service
// domain: "dom0" on Xen and "host" on KVM. Driver code is identical either
// way (the §4 portability claim).
func NewFlavored(eng *sim.Engine, meter *cpu.Meter, fabric *pcie.Fabric, mmu *iommu.IOMMU, opts Optimizations, flavor Flavor) *Hypervisor {
	r := obs.NewRegistry()
	h := &Hypervisor{
		eng:              eng,
		meter:            meter,
		fabric:           fabric,
		mmu:              mmu,
		vectors:          interrupts.NewAllocator(),
		opts:             opts,
		flavor:           flavor,
		xen:              meter.Ledger("xen"),
		domains:          make(map[int]*Domain),
		Counters:         r,
		assigns:          r.Counter("assign"),
		unassigns:        r.Counter("unassign"),
		msiRejected:      r.Counter("msi_rejected"),
		msiWhilePaused:   r.Counter("msi_while_paused"),
		msiMaskWrites:    r.Counter("msi_mask_writes"),
		eoiMisemulations: r.Counter("eoi_misemulation"),
		configAccesses:   r.Counter("config_accesses"),
	}
	service := "dom0"
	if flavor == KVM {
		service = "host"
	}
	h.dom0 = h.createDomain(service, Dom0, KernelRHEL5, nil)
	h.iovm = newIOVM(h)
	return h
}

// Engine returns the simulation engine.
func (h *Hypervisor) Engine() *sim.Engine { return h.eng }

// Meter returns the CPU meter.
func (h *Hypervisor) Meter() *cpu.Meter { return h.meter }

// IOMMU returns the IOMMU.
func (h *Hypervisor) IOMMU() *iommu.IOMMU { return h.mmu }

// Xen returns the hypervisor's own CPU ledger.
func (h *Hypervisor) Xen() cpu.Ledger { return h.xen }

// Exits returns the VM-exit trace since the last ResetExitTrace.
func (h *Hypervisor) Exits() ExitTrace { return h.exits }

// Dom0 returns the service domain.
func (h *Hypervisor) Dom0() *Domain { return h.dom0 }

// IOVMgr returns the SR-IOV manager mediating guest config access (§4.1).
func (h *Hypervisor) IOVMgr() *IOVM { return h.iovm }

// Domains returns all domains in creation order.
func (h *Hypervisor) Domains() []*Domain {
	out := make([]*Domain, 0, len(h.domains))
	for i := 0; i < h.nextID; i++ {
		if d, ok := h.domains[i]; ok {
			out = append(out, d)
		}
	}
	return out
}

func (h *Hypervisor) createDomain(name string, t DomainType, k KernelConfig, dm *mem.DomainMemory) *Domain {
	d := &Domain{
		ID:     h.nextID,
		Name:   name,
		Type:   t,
		Kernel: k,
		Memory: dm,
		ledger: h.meter.Ledger(name),
	}
	switch t {
	case HVM:
		d.lapic = &interrupts.LAPIC{}
		d.isrs = new([256]func())
	case PVM, Dom0:
		const ports = 256
		d.events = interrupts.NewEventChannels(ports)
		d.upcalls = make([]func(), ports)
	case Native:
		d.lapic = &interrupts.LAPIC{} // a real LAPIC, not emulated
		d.isrs = new([256]func())
	}
	h.nextID++
	h.domains[d.ID] = d
	return d
}

// CreateDomain creates a guest domain with the given memory. KVM has no
// paravirtualized domain type (its guests are all hardware VMs).
func (h *Hypervisor) CreateDomain(name string, t DomainType, k KernelConfig, dm *mem.DomainMemory) *Domain {
	if t == Dom0 {
		panic("vmm: service domain already exists")
	}
	if t == PVM && h.flavor == KVM {
		panic("vmm: KVM has no paravirtualized guests")
	}
	return h.createDomain(name, t, k, dm)
}

// SetPaused pauses/unpauses a domain (migration stop-and-copy). A paused
// domain's interrupts stay pending and its handlers do not run.
func (h *Hypervisor) SetPaused(d *Domain, p bool) {
	d.paused = p
	h.Tracer.Emitf(h.eng.Now(), "domain", "set-paused", "%s paused=%v", d.Name, p)
}

// ---- PCI passthrough ----

// AssignDevice gives a guest direct access to a function: the IOMMU context
// is bound to the guest's address space so the function's DMA is remapped
// through the guest's p2m (§2), and a DMA check is available for the NIC
// model via DMACheckFor.
func (h *Hypervisor) AssignDevice(d *Domain, fn *pcie.Function) error {
	if d.Memory == nil {
		return fmt.Errorf("vmm: domain %s has no memory to map", d.Name)
	}
	rid := uint16(fn.RID())
	h.mmu.AttachDomain(rid, d.ID)
	if err := h.mmu.MapDomainMemory(rid, d.Memory); err != nil {
		return err
	}
	d.assigned = append(d.assigned, fn)
	h.assigns.Inc()
	h.Tracer.Emitf(h.eng.Now(), "passthrough", "assign", "%s -> %s", fn, d.Name)
	return nil
}

// UnassignDevice revokes a passthrough assignment (hot removal).
func (h *Hypervisor) UnassignDevice(d *Domain, fn *pcie.Function) {
	h.iovm.Revoke(d, fn)
	h.mmu.DetachRID(uint16(fn.RID()))
	for i, a := range d.assigned {
		if a == fn {
			d.assigned = append(d.assigned[:i], d.assigned[i+1:]...)
			break
		}
	}
	h.unassigns.Inc()
	h.Tracer.Emitf(h.eng.Now(), "passthrough", "unassign", "%s from %s", fn, d.Name)
}

// DMACheckFor returns a closure validating one DMA delivery into the
// domain's receive buffer through the fabric and IOMMU — installed as the
// NIC queue's DMACheck. The buffer GPA cycles through the guest's pages so
// the IOTLB sees realistic reuse.
func (h *Hypervisor) DMACheckFor(d *Domain, fn *pcie.Function) func(units.Size) error {
	var nextGPA uint64 = 0x10000
	return func(bytes units.Size) error {
		if d.Memory == nil {
			return fmt.Errorf("vmm: no memory")
		}
		gpa := nextGPA
		nextGPA += uint64(bytes)
		if nextGPA >= uint64(d.Memory.Size())-uint64(mem.PageSize) {
			nextGPA = 0x10000
		}
		route := h.fabric.RouteDMA(fn, gpa, true)
		if route.Blocked {
			return fmt.Errorf("vmm: DMA blocked: %s", route.BlockReason)
		}
		return nil
	}
}

// ---- Cycle charging ----

// pollutionActive reports whether the §5.1 TLB/cache pollution penalty
// applies: an HVM guest bouncing mask/unmask through the device model.
func (h *Hypervisor) pollutionActive(d *Domain) bool {
	return d.Type == HVM && d.Kernel.MasksMSIAtRuntime && !h.opts.MaskAccel
}

// ChargeGuest charges guest-context cycles to the guest's ledger, applying
// the pollution factor when the unoptimized mask path is thrashing caches.
func (h *Hypervisor) ChargeGuest(d *Domain, c units.Cycles) {
	if h.pollutionActive(d) {
		c = units.Cycles(float64(c) * model.MaskPollutionFactor)
	}
	h.meter.Charge(d.ledger, c)
}

// ChargeXen charges hypervisor cycles spent on d's behalf to the "xen"
// ledger (as the paper's stacked bars do), with the same pollution rule.
func (h *Hypervisor) ChargeXen(d *Domain, c units.Cycles) {
	if h.pollutionActive(d) {
		c = units.Cycles(float64(c) * model.MaskPollutionFactor)
	}
	h.meter.Charge(h.xen, c)
}

// ChargeDom0 charges service-domain cycles (dom0 on Xen, the host on KVM).
func (h *Hypervisor) ChargeDom0(c units.Cycles) {
	h.meter.Charge(h.dom0.ledger, c)
}

func (h *Hypervisor) recordExit(r ExitReason, c units.Cycles) {
	h.recordExitN(r, 1, c)
}

func (h *Hypervisor) recordExitN(r ExitReason, n int64, c units.Cycles) {
	h.exits[r].Count += n
	h.exits[r].Cycles += c
	if h.Obs != nil {
		ctr := h.exitCounters[r]
		if ctr == nil {
			ctr = h.Obs.Counter("vmm.exits." + exitMetrics[r])
			h.exitCounters[r] = ctr
		}
		ctr.Add(n)
	}
}

// ResetExitTrace clears the Fig. 7 trace.
func (h *Hypervisor) ResetExitTrace() { h.exits = ExitTrace{} }
