package pcie

import "fmt"

// Function is one PCIe function: a config space, BARs, and behaviour hooks
// that the owning device model installs. A VF is a Function with IsVF set;
// it shares its device with the parent PF and only duplicates the
// performance-critical resources (§2) — here, that means its own RID, BAR
// and MSI-X state, while configuration behaviour defers to the device.
type Function struct {
	rid  RID
	cfg  *ConfigSpace
	name string
	isVF bool

	port *Port // where the function's device is attached

	barSize [6]uint64
	barAddr [6]uint64

	// OnConfigWrite fires after a config register write, letting the device
	// model react (the SR-IOV control register is the important one).
	OnConfigWrite func(off, size int, val uint32)
	// OnMMIOWrite lets the device model implement registers in BAR space
	// (doorbells, interrupt throttle registers, ...).
	OnMMIOWrite func(bar int, off uint64, val uint64)
	// OnFLR fires when a config write sets Initiate Function Level Reset
	// in the PCI Express capability; the device model resets the
	// function's hardware state. The bit is self-clearing.
	OnFLR func()
}

// NewFunction creates a function with a fresh config space.
func NewFunction(name string, rid RID, vendorID, deviceID uint16) *Function {
	return &Function{
		name: name,
		rid:  rid,
		cfg:  NewConfigSpace(vendorID, deviceID),
	}
}

// Name reports the function's human-readable name.
func (f *Function) Name() string { return f.name }

// RID reports the function's requester ID.
func (f *Function) RID() RID { return f.rid }

// Config returns the function's configuration space.
func (f *Function) Config() *ConfigSpace { return f.cfg }

// IsVF reports whether this is a virtual function.
func (f *Function) IsVF() bool { return f.isVF }

// Port reports the port the function's device hangs off (nil if detached).
func (f *Function) Port() *Port { return f.port }

// RespondsToScan reports whether an ordinary config-space bus scan sees the
// function. VFs never respond to a scan, even when enabled (§4.1); they are
// discovered through the PF's SR-IOV capability and hot-added.
func (f *Function) RespondsToScan() bool { return f.cfg.Present() && !f.isVF }

// SetBARSize declares BAR i as a memory BAR of the given size.
func (f *Function) SetBARSize(i int, size uint64) { f.barSize[i] = size }

// BARSize reports the size of BAR i.
func (f *Function) BARSize(i int) uint64 { return f.barSize[i] }

// AssignBAR programs BAR i's base address (done by enumeration/hot-add).
func (f *Function) AssignBAR(i int, addr uint64) {
	f.barAddr[i] = addr
	f.cfg.Write32(RegBAR0+4*i, uint32(addr))
}

// BAR reports the assigned base address of BAR i.
func (f *Function) BAR(i int) uint64 { return f.barAddr[i] }

// OwnsMMIO reports whether addr falls inside one of the function's BARs,
// and which.
func (f *Function) OwnsMMIO(addr uint64) (bar int, ok bool) {
	if !f.cfg.Present() {
		return 0, false
	}
	for i, size := range f.barSize {
		if size == 0 || f.barAddr[i] == 0 {
			continue
		}
		if addr >= f.barAddr[i] && addr < f.barAddr[i]+size {
			return i, true
		}
	}
	return 0, false
}

// ConfigWrite32 performs a 32-bit config write and fires the device hook.
func (f *Function) ConfigWrite32(off int, v uint32) {
	f.cfg.Write32(off, v)
	if f.OnConfigWrite != nil {
		f.OnConfigWrite(off, 4, v)
	}
	f.checkFLR(off, 4, v)
}

// ConfigWrite16 performs a 16-bit config write and fires the device hook.
func (f *Function) ConfigWrite16(off int, v uint16) {
	f.cfg.Write16(off, v)
	if f.OnConfigWrite != nil {
		f.OnConfigWrite(off, 2, uint32(v))
	}
	f.checkFLR(off, 2, uint32(v))
}

// checkFLR detects a write setting Initiate FLR in the PCI Express
// capability's Device Control register, self-clears the bit (the reset
// completes "immediately" from config space's point of view) and fires the
// device hook.
func (f *Function) checkFLR(off, size int, v uint32) {
	if f.OnFLR == nil {
		return
	}
	cap, ok := PCIeCapAt(f.cfg)
	if !ok {
		return
	}
	ctl := cap.DevCtlOffset()
	if off > ctl || off+size <= ctl {
		return
	}
	if uint16(v>>(uint(ctl-off)*8))&PCIeDevCtlFLR == 0 {
		return
	}
	f.cfg.Write16(ctl, f.cfg.Read16(ctl)&^PCIeDevCtlFLR)
	f.OnFLR()
}

// MMIOWrite dispatches a write to a BAR-relative register.
func (f *Function) MMIOWrite(bar int, off uint64, val uint64) {
	if f.OnMMIOWrite != nil {
		f.OnMMIOWrite(bar, off, val)
	}
}

// String renders the function as "name@bb:dd.f".
func (f *Function) String() string { return fmt.Sprintf("%s@%s", f.name, f.rid) }

// Device is a physical PCIe device: one or more PFs, each possibly with VFs.
type Device struct {
	name      string
	functions []*Function // PFs, in function order
	vfs       map[*Function][]*Function
}

// NewDevice creates an empty device.
func NewDevice(name string) *Device {
	return &Device{name: name, vfs: make(map[*Function][]*Function)}
}

// Name reports the device name.
func (d *Device) Name() string { return d.name }

// AddPF attaches a physical function to the device.
func (d *Device) AddPF(f *Function) { d.functions = append(d.functions, f) }

// PFs reports the device's physical functions.
func (d *Device) PFs() []*Function { return d.functions }

// AddVF registers a (initially non-present) VF under a PF. The VF's config
// space is created here with the VF device ID from the PF's SR-IOV
// capability and marked non-present until VF Enable.
func (d *Device) AddVF(pf *Function, idx int) *Function {
	cap, ok := SRIOVCapAt(pf.Config())
	if !ok {
		panic("pcie: AddVF on a PF without SR-IOV capability")
	}
	vf := NewFunction(
		fmt.Sprintf("%s-vf%d", pf.Name(), idx),
		cap.VFRID(pf.RID(), idx),
		pf.Config().Read16(RegVendorID),
		cap.VFDeviceID(),
	)
	vf.isVF = true
	vf.port = pf.port
	vf.cfg.SetPresent(false)
	d.vfs[pf] = append(d.vfs[pf], vf)
	return vf
}

// VFs reports the VFs registered under a PF.
func (d *Device) VFs(pf *Function) []*Function { return d.vfs[pf] }

// SetVFsPresent makes the first n VFs of pf respond to targeted config
// access (what VF Enable does in hardware) and hides the rest.
func (d *Device) SetVFsPresent(pf *Function, n int) {
	for i, vf := range d.vfs[pf] {
		vf.cfg.SetPresent(i < n)
	}
}

// AllFunctions reports every function of the device, PFs then their VFs.
func (d *Device) AllFunctions() []*Function {
	var out []*Function
	for _, pf := range d.functions {
		out = append(out, pf)
		out = append(out, d.vfs[pf]...)
	}
	return out
}
