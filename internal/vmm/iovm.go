package vmm

import (
	"fmt"

	"repro/internal/pcie"
)

// IOVM is the SR-IOV manager of §4.1: it "presents a virtual full
// configuration space for each VF, so that a guest OS can enumerate and
// configure the VF as an ordinary PCIe device". Every guest configuration
// access is mediated here — reads are mostly pass-through, writes are
// filtered to the registers a guest may legitimately touch, and each access
// pays the trap-and-emulate cost of the guest's flavour (user-level device
// model for HVM, PCIback for PVM).
type IOVM struct {
	hv    *Hypervisor
	views map[viewKey]*VirtualConfig
}

type viewKey struct {
	dom int
	fn  *pcie.Function
}

// newIOVM creates the manager.
func newIOVM(hv *Hypervisor) *IOVM {
	return &IOVM{hv: hv, views: make(map[viewKey]*VirtualConfig)}
}

// VirtualConfig is one guest's view of one function's configuration space.
type VirtualConfig struct {
	iovm *IOVM
	dom  *Domain
	fn   *pcie.Function

	// shadowCommand holds the guest-visible command register; the real one
	// is controlled by the host.
	shadowCommand uint16

	// BlockedWrites counts guest writes the filter refused.
	BlockedWrites int64
}

// Expose creates (or returns) the guest's virtual config space for fn. The
// function must be assigned to the domain.
func (io *IOVM) Expose(d *Domain, fn *pcie.Function) (*VirtualConfig, error) {
	assigned := false
	for _, a := range d.assigned {
		if a == fn {
			assigned = true
			break
		}
	}
	if !assigned {
		return nil, fmt.Errorf("vmm: %s is not assigned to domain %s", fn, d.Name)
	}
	key := viewKey{d.ID, fn}
	if vc, ok := io.views[key]; ok {
		return vc, nil
	}
	vc := &VirtualConfig{iovm: io, dom: d, fn: fn}
	io.views[key] = vc
	return vc, nil
}

// Revoke removes the view (hot removal).
func (io *IOVM) Revoke(d *Domain, fn *pcie.Function) {
	delete(io.views, viewKey{d.ID, fn})
}

// access charges the per-access mediation cost.
func (vc *VirtualConfig) access() {
	vc.iovm.hv.GuestConfigAccess(vc.dom, 1)
}

// Read16 performs a mediated 16-bit config read.
func (vc *VirtualConfig) Read16(off int) uint16 {
	vc.access()
	if off == pcie.RegCommand {
		return vc.shadowCommand
	}
	return vc.fn.Config().Read16(off)
}

// Write16 performs a mediated 16-bit config write, enforcing the filter.
func (vc *VirtualConfig) Write16(off int, v uint16) {
	vc.access()
	if !vc.writeAllowed(off) {
		vc.BlockedWrites++
		return
	}
	if off == pcie.RegCommand {
		// The guest may toggle memory/bus-master/INTx for itself; the
		// host-visible command register is not its to break.
		vc.shadowCommand = v & (pcie.CmdMemSpace | pcie.CmdBusMaster | pcie.CmdIntxOff)
		return
	}
	vc.fn.ConfigWrite16(off, v)
}

// Write32 performs a mediated 32-bit config write, enforcing the filter.
func (vc *VirtualConfig) Write32(off int, v uint32) {
	vc.access()
	if !vc.writeAllowed(off) {
		vc.BlockedWrites++
		return
	}
	vc.fn.ConfigWrite32(off, v)
}

// writeAllowed is the IOVM's policy: identification registers and BARs are
// host-owned (the device model emulates BAR sizing itself); capability
// regions the driver legitimately programs (MSI/MSI-X) and the command
// register are allowed; everything in extended space is refused for a VF
// (a VF has no SR-IOV capability of its own, and ACS is fabric-owned).
func (vc *VirtualConfig) writeAllowed(off int) bool {
	switch {
	case off == pcie.RegCommand:
		return true
	case off < 0x40:
		// Header: ID registers, BARs — host-owned.
		return false
	case off >= pcie.ExtCapBase:
		return false
	default:
		return true // capability region (MSI, MSI-X)
	}
}

// FindCapability walks the capability chain through the mediated view.
func (vc *VirtualConfig) FindCapability(id uint8) int {
	vc.access()
	return vc.fn.Config().FindCapability(id)
}
