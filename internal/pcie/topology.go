package pcie

import (
	"fmt"
	"sort"
	"strings"
)

// PortKind distinguishes the roles a port can play in the topology.
type PortKind int

// Port kinds.
const (
	RootPort PortKind = iota
	SwitchUpstream
	SwitchDownstream
)

func (k PortKind) String() string {
	switch k {
	case RootPort:
		return "root-port"
	case SwitchUpstream:
		return "upstream"
	case SwitchDownstream:
		return "downstream"
	default:
		return "unknown"
	}
}

// Port is a PCIe link endpoint on the fabric side: a root port on the root
// complex or a switch port. Devices attach to root ports or switch
// downstream ports.
type Port struct {
	kind   PortKind
	name   string
	sw     *Switch // owning switch, for switch ports
	device *Device // attached device, for root/downstream ports
	acs    ACSCap
	hasACS bool
}

// Kind reports the port's role.
func (p *Port) Kind() PortKind { return p.kind }

// Switch reports the owning switch for switch ports (nil for root ports).
func (p *Port) Switch() *Switch { return p.sw }

// ACS returns the port's ACS capability view. Only switch downstream ports
// have one.
func (p *Port) ACS() (ACSCap, bool) { return p.acs, p.hasACS }

// Switch is a PCIe switch: one upstream port and several downstream ports.
// Each downstream port carries an ACS capability controlling whether
// peer-to-peer TLPs between its siblings are switched directly or forced
// upstream through the root complex and IOMMU (§4.3).
type Switch struct {
	downstream []*Port
	cfg        *ConfigSpace // switch's own config space, hosts ACS caps
}

// NewSwitch creates a switch with n downstream ports, each with an ACS
// capability (redirect initially off — the insecure default the paper warns
// about).
func NewSwitch(name string, n int) *Switch {
	s := &Switch{cfg: NewConfigSpace(0x8086, 0x0101)}
	capOff := ExtCapBase
	for i := 0; i < n; i++ {
		p := &Port{kind: SwitchDownstream, name: fmt.Sprintf("%s/down%d", name, i), sw: s}
		p.acs = AddACSCap(s.cfg, capOff)
		p.hasACS = true
		capOff += 0x10
		s.downstream = append(s.downstream, p)
	}
	return s
}

// Downstream reports downstream port i.
func (s *Switch) Downstream(i int) *Port { return s.downstream[i] }

// Translator maps a (requester ID, device-visible address) to a host
// physical address, or fails the transaction. The IOMMU implements it.
type Translator interface {
	TranslateDMA(rid uint16, addr uint64, write bool) (uint64, error)
}

// Route describes how a transaction traversed the fabric. Unless it
// bypassed the IOMMU, the IOMMU translated and validated it.
type Route struct {
	BypassedIOMMU bool   // direct P2P switch routing skipped the IOMMU
	Blocked       bool   // the transaction was rejected
	BlockReason   string // why, when Blocked
}

// Fabric is the assembled PCIe topology: a root complex with root ports,
// optional switches, attached devices, an MMIO address map, and the
// IOMMU hook for upstream transactions.
type Fabric struct {
	rootPorts []*Port
	switches  []*Switch
	functions map[RID]*Function
	iommu     Translator
	nextMMIO  uint64
	nextBus   int

	// MMIO decode acceleration. Every DMA is routed through MMIOTarget to
	// decide host-memory vs peer-MMIO, and almost all of them target host
	// memory (guest-physical addresses far below the MMIO aperture), so a
	// linear walk of every function's BARs per transaction dominated the
	// scalability figures. mmioLo/mmioHi bound the assigned aperture for an
	// O(1) reject of host-memory addresses; barIndex is the sorted interval
	// index for addresses inside it, rebuilt lazily after BAR assignment.
	// Presence is checked at lookup time, so surprise removal (SetPresent)
	// needs no invalidation; BAR assignment is monotone and BARs are never
	// reclaimed, so entries are only ever added.
	mmioLo, mmioHi uint64
	barIndex       []barRange
	barDirty       bool
}

// barRange is one assigned BAR's address interval [lo, hi).
type barRange struct {
	lo, hi uint64
	fn     *Function
}

// NewFabric creates an empty fabric. MMIO allocation starts at 0xe0000000.
func NewFabric() *Fabric {
	return &Fabric{
		functions: make(map[RID]*Function),
		nextMMIO:  0xe000_0000,
		nextBus:   1,
		mmioLo:    0xe000_0000,
		mmioHi:    0xe000_0000, // empty aperture until the first BAR assignment
	}
}

// SetIOMMU installs the DMA translator. Without one, upstream DMA faults.
func (f *Fabric) SetIOMMU(t Translator) { f.iommu = t }

// AddRootPort creates a new root port on the root complex.
func (f *Fabric) AddRootPort(name string) *Port {
	p := &Port{kind: RootPort, name: name}
	f.rootPorts = append(f.rootPorts, p)
	return p
}

// AddSwitch attaches a switch's upstream to a root port.
func (f *Fabric) AddSwitch(root *Port, sw *Switch) {
	if root.kind != RootPort {
		panic("pcie: switches attach to root ports")
	}
	if root.device != nil {
		panic("pcie: root port already has a device")
	}
	f.switches = append(f.switches, sw)
	root.sw = sw
}

// Attach connects a device to a root port or switch downstream port and
// registers all its functions (including not-yet-present VFs) with the
// fabric, assigning bus numbers.
func (f *Fabric) Attach(port *Port, dev *Device) {
	if port.kind == SwitchUpstream {
		panic("pcie: devices cannot attach to upstream ports")
	}
	if port.device != nil {
		panic("pcie: port already has a device")
	}
	port.device = dev
	bus := f.nextBus
	f.nextBus++
	for _, fn := range dev.AllFunctions() {
		// Rebase the function's RID onto the assigned bus, preserving
		// dev/fn (and the VF offset arithmetic, which already produced
		// distinct dev/fn slots).
		fn.rid = MakeRID(bus, fn.rid.Dev(), fn.rid.Fn())
		fn.port = port
		if prev, dup := f.functions[fn.rid]; dup {
			panic(fmt.Sprintf("pcie: RID %s already taken by %s", fn.rid, prev))
		}
		f.functions[fn.rid] = fn
	}
}

// Functions reports all registered functions sorted by RID.
func (f *Fabric) Functions() []*Function {
	out := make([]*Function, 0, len(f.functions))
	for _, fn := range f.functions {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rid < out[j].rid })
	return out
}

// Enumerate performs an ordinary bus scan: it visits every attached device
// and returns the functions that respond (PFs; VFs never respond to scans),
// assigning MMIO addresses to their BARs.
func (f *Fabric) Enumerate() []*Function {
	var found []*Function
	for _, fn := range f.Functions() {
		if !fn.RespondsToScan() {
			continue
		}
		f.assignBARs(fn)
		found = append(found, fn)
	}
	return found
}

// HotAdd makes a targeted config access to a function that a scan cannot
// find (a VF) and brings it into the address map — the Linux "PCI hot add
// API" path of §4.1. It fails if the function does not respond (VF Enable
// not set).
func (f *Fabric) HotAdd(rid RID) (*Function, error) {
	fn, ok := f.functions[rid]
	if !ok {
		return nil, fmt.Errorf("pcie: no function at %s", rid)
	}
	if fn.Config().Read16(RegVendorID) == 0xffff {
		return nil, fmt.Errorf("pcie: function %s does not respond (VF not enabled?)", rid)
	}
	f.assignBARs(fn)
	return fn, nil
}

func (f *Fabric) assignBARs(fn *Function) {
	for i := 0; i < 6; i++ {
		size := fn.BARSize(i)
		if size == 0 || fn.BAR(i) != 0 {
			continue
		}
		// Align to size.
		addr := (f.nextMMIO + size - 1) &^ (size - 1)
		fn.AssignBAR(i, addr)
		f.nextMMIO = addr + size
		if addr < f.mmioLo {
			f.mmioLo = addr
		}
		if addr+size > f.mmioHi {
			f.mmioHi = addr + size
		}
		f.barDirty = true
	}
}

// rebuildBARIndex re-derives the sorted interval index from every assigned
// BAR. BARs come from a monotone non-reclaiming allocator, so intervals
// never overlap and the owner of an address is unique.
func (f *Fabric) rebuildBARIndex() {
	f.barDirty = false
	f.barIndex = f.barIndex[:0]
	for _, fn := range f.functions {
		for i := 0; i < 6; i++ {
			size := fn.BARSize(i)
			if size == 0 || fn.BAR(i) == 0 {
				continue
			}
			f.barIndex = append(f.barIndex, barRange{lo: fn.BAR(i), hi: fn.BAR(i) + size, fn: fn})
		}
	}
	sort.Slice(f.barIndex, func(i, j int) bool { return f.barIndex[i].lo < f.barIndex[j].lo })
}

// MMIOTarget finds the function owning an MMIO address. Addresses outside
// the assigned aperture — every host-memory DMA — reject in O(1); hits
// binary-search the BAR interval index and then defer to OwnsMMIO, which
// re-checks bounds and presence, so a surprise-removed function never
// claims its stale BAR.
func (f *Fabric) MMIOTarget(addr uint64) (*Function, int, bool) {
	if addr < f.mmioLo || addr >= f.mmioHi {
		return nil, 0, false
	}
	if f.barDirty {
		f.rebuildBARIndex()
	}
	i := sort.Search(len(f.barIndex), func(i int) bool { return f.barIndex[i].hi > addr })
	if i < len(f.barIndex) && addr >= f.barIndex[i].lo {
		r := f.barIndex[i]
		if bar, ok := r.fn.OwnsMMIO(addr); ok {
			return r.fn, bar, true
		}
	}
	return nil, 0, false
}

// RouteDMA routes a memory transaction issued by src toward addr. Host
// memory transactions always traverse the root complex and IOMMU. A
// transaction aimed at a sibling function's MMIO is switched directly —
// bypassing the IOMMU, the §4.3 hole — unless the source's downstream port
// has ACS P2P redirect enabled, in which case it is forced upstream and
// validated (and, with no mapping for peer MMIO in the source's page table,
// blocked).
func (f *Fabric) RouteDMA(src *Function, addr uint64, write bool) Route {
	if target, _, isP2P := f.MMIOTarget(addr); isP2P && target != src {
		return f.routeP2P(src, target, addr, write)
	}
	return f.routeUpstream(src, addr, write)
}

func (f *Fabric) routeP2P(src, target *Function, addr uint64, write bool) Route {
	sp, tp := src.Port(), target.Port()
	sameSwitch := sp != nil && tp != nil &&
		sp.Kind() == SwitchDownstream && tp.Kind() == SwitchDownstream &&
		sp.Switch() == tp.Switch()
	if sameSwitch {
		if acs, ok := sp.ACS(); !ok || !acs.RedirectEnabled() {
			// Direct switch routing: never reaches the IOMMU.
			return Route{BypassedIOMMU: true}
		}
	}
	return f.routeUpstream(src, addr, write)
}

func (f *Fabric) routeUpstream(src *Function, addr uint64, write bool) Route {
	if f.iommu == nil {
		return Route{Blocked: true, BlockReason: "no IOMMU configured"}
	}
	if _, err := f.iommu.TranslateDMA(uint16(src.RID()), addr, write); err != nil {
		return Route{Blocked: true, BlockReason: err.Error()}
	}
	return Route{}
}

// Describe renders the topology tree (examples/security prints it).
func (f *Fabric) Describe() string {
	var b strings.Builder
	writeDev := func(indent string, dev *Device) {
		for _, pf := range dev.PFs() {
			present := ""
			if !pf.Config().Present() {
				present = " (absent)"
			}
			fmt.Fprintf(&b, "%s- %s%s\n", indent, pf, present)
			for _, vf := range dev.VFs(pf) {
				state := "disabled"
				if vf.Config().Present() {
					state = "enabled"
				}
				fmt.Fprintf(&b, "%s  - %s [%s]\n", indent, vf, state)
			}
		}
	}
	fmt.Fprintf(&b, "root complex\n")
	for _, rp := range f.rootPorts {
		fmt.Fprintf(&b, "  %s (%s)\n", rp.name, rp.kind)
		if rp.sw != nil {
			for _, dp := range rp.sw.downstream {
				fmt.Fprintf(&b, "    %s (%s)\n", dp.name, dp.kind)
				if dp.device != nil {
					writeDev("      ", dp.device)
				}
			}
		} else if rp.device != nil {
			writeDev("    ", rp.device)
		}
	}
	return b.String()
}
