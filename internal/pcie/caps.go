package pcie

// This file provides typed views over the capability structures the
// simulator uses: MSI (with per-vector masking — the register the RHEL5U1
// guest hammers in §5.1), MSI-X, the SR-IOV extended capability that PF
// drivers program to materialize VFs, and ACS for the §4.3 security story.

// ---- MSI capability (ID 0x05) ----
//
// Layout (per-vector-masking capable, 64-bit):
//   +0  cap id / next
//   +2  Message Control
//   +4  Message Address (lo)
//   +8  Message Address (hi)
//   +12 Message Data
//   +16 Mask Bits (one bit per vector)
//   +20 Pending Bits

const msiBodySize = 22

// MSI control register bits.
const (
	MSICtlEnable     = 1 << 0
	MSICtl64Bit      = 1 << 7
	MSICtlPerVectorM = 1 << 8
)

// MSICap is a typed view of an MSI capability inside a config space.
type MSICap struct {
	off int
}

// AddMSICap installs an MSI capability at off with per-vector masking and
// 64-bit addressing, supporting 1<<log2Vectors vectors.
func AddMSICap(cfg *ConfigSpace, off int, log2Vectors int) MSICap {
	cfg.AddCapability(CapIDMSI, off, msiBodySize)
	ctl := uint16(MSICtl64Bit|MSICtlPerVectorM) | uint16(log2Vectors&0x7)<<1
	cfg.writeRaw16(off+2, ctl)
	return MSICap{off: off}
}

// MSICapAt returns a view of the MSI capability found in cfg, or ok=false.
func MSICapAt(cfg *ConfigSpace) (MSICap, bool) {
	off := cfg.FindCapability(CapIDMSI)
	if off == 0 {
		return MSICap{}, false
	}
	return MSICap{off: off}, true
}

// Offset reports the capability's config-space offset.
func (m MSICap) Offset() int { return m.off }

// ---- PCI Express capability (ID 0x10) ----
//
// Layout (subset the model uses):
//   +0  cap id / next
//   +2  PCI Express Capabilities
//   +4  Device Capabilities   (bit 28 = Function Level Reset capable)
//   +8  Device Control        (bit 15 = Initiate Function Level Reset)
//   +10 Device Status
//
// FLR is the recovery primitive of the fault model: writing Initiate FLR
// resets the function's own state (rings, ITR, MSI-X table) without
// touching its siblings — exactly what a VF driver needs after the PF
// announces a device reset, and what the host needs to sanitize a VF
// between assignments.

const pcieBodySize = 12

// PCIe capability register offsets (relative to the capability) and bits.
const (
	PCIeDevCapOff = 4
	PCIeDevCtlOff = 8

	PCIeDevCapFLR uint32 = 1 << 28
	PCIeDevCtlFLR uint16 = 1 << 15
)

// PCIeCap is a typed view of a PCI Express capability.
type PCIeCap struct {
	off int
}

// AddPCIeCap installs a PCI Express capability at off, advertising FLR.
func AddPCIeCap(cfg *ConfigSpace, off int) PCIeCap {
	cfg.AddCapability(CapIDPCIExp, off, pcieBodySize)
	cfg.writeRaw32(off+PCIeDevCapOff, PCIeDevCapFLR)
	return PCIeCap{off: off}
}

// PCIeCapAt returns a view of the PCI Express capability found in cfg.
func PCIeCapAt(cfg *ConfigSpace) (PCIeCap, bool) {
	off := cfg.FindCapability(CapIDPCIExp)
	if off == 0 {
		return PCIeCap{}, false
	}
	return PCIeCap{off: off}, true
}

// DevCtlOffset reports the config-space offset of Device Control — where
// software writes Initiate FLR.
func (c PCIeCap) DevCtlOffset() int { return c.off + PCIeDevCtlOff }

// ---- MSI-X capability (ID 0x11) ----
//
// Layout:
//   +0 cap id / next
//   +2 Message Control (table size minus one, function mask, enable)
//   +4 Table Offset / BIR
//   +8 PBA Offset / BIR

const msixBodySize = 10

// MSIXCap is a typed view of an MSI-X capability. Its location and the
// Table BIR field are read-only to software, so they are latched when the
// capability is built: the hypervisor checks every guest MMIO write
// against the table BAR without walking the capability chain.
type MSIXCap struct {
	off int
	bir int
}

// AddMSIXCap installs an MSI-X capability at off with the given table size,
// table in BAR bir at tableOff.
func AddMSIXCap(cfg *ConfigSpace, off, tableSize, bir int, tableOff uint32) MSIXCap {
	if tableSize < 1 || tableSize > 2048 {
		panic("pcie: MSI-X table size out of range")
	}
	cfg.AddCapability(CapIDMSIX, off, msixBodySize)
	cfg.writeRaw16(off+2, uint16(tableSize-1))
	cfg.writeRaw32(off+4, tableOff&^0x7|uint32(bir&0x7))
	cfg.msix = MSIXCap{off: off, bir: bir & 0x7}
	return cfg.msix
}

// MSIXCapAt returns the MSI-X capability AddMSIXCap built in cfg. Like a
// capability walk, it finds none while the function does not respond on
// the bus.
func MSIXCapAt(cfg *ConfigSpace) (MSIXCap, bool) {
	if !cfg.present || cfg.msix.off == 0 {
		return MSIXCap{}, false
	}
	return cfg.msix, true
}

// TableBIR reports which BAR holds the vector table.
func (m MSIXCap) TableBIR() int { return m.bir }

// ---- SR-IOV extended capability (ID 0x0010) ----
//
// Layout (offsets relative to the capability):
//   +0x00 header
//   +0x04 SR-IOV Capabilities
//   +0x08 SR-IOV Control        (bit0 VF Enable, bit3 VF MSE)
//   +0x0a SR-IOV Status
//   +0x0c InitialVFs
//   +0x0e TotalVFs
//   +0x10 NumVFs
//   +0x14 First VF Offset
//   +0x16 VF Stride
//   +0x1a VF Device ID
//   +0x1c Supported Page Sizes
//   +0x20 System Page Size
//   +0x24 VF BAR0 .. +0x38 VF BAR5

const sriovBodySize = 0x3c

// SR-IOV control bits.
const (
	SRIOVCtlVFEnable = 1 << 0
	SRIOVCtlVFMSE    = 1 << 3 // VF memory space enable
)

// SRIOVCap is a typed view of the SR-IOV extended capability on a PF.
type SRIOVCap struct {
	cfg *ConfigSpace
	off int
}

// SRIOVConfig describes the fixed hardware parameters of an SR-IOV PF.
type SRIOVConfig struct {
	TotalVFs      int
	FirstVFOffset int
	VFStride      int
	VFDeviceID    uint16
}

// AddSRIOVCap installs the SR-IOV extended capability at off.
func AddSRIOVCap(cfg *ConfigSpace, off int, sc SRIOVConfig) SRIOVCap {
	cfg.AddExtCapability(ExtCapIDSRIOV, 1, off, sriovBodySize)
	cfg.writeRaw16(off+0x0c, uint16(sc.TotalVFs)) // InitialVFs
	cfg.writeRaw16(off+0x0e, uint16(sc.TotalVFs)) // TotalVFs
	cfg.writeRaw16(off+0x14, uint16(sc.FirstVFOffset))
	cfg.writeRaw16(off+0x16, uint16(sc.VFStride))
	cfg.writeRaw16(off+0x1a, sc.VFDeviceID)
	cfg.writeRaw32(off+0x1c, 0x553) // supported page sizes: 4K..1M, as 82576
	cfg.writeRaw32(off+0x20, 0x1)   // system page size: 4K
	return SRIOVCap{cfg: cfg, off: off}
}

// SRIOVCapAt returns a view of the SR-IOV capability found in cfg.
func SRIOVCapAt(cfg *ConfigSpace) (SRIOVCap, bool) {
	off := cfg.FindExtCapability(ExtCapIDSRIOV)
	if off == 0 {
		return SRIOVCap{}, false
	}
	return SRIOVCap{cfg: cfg, off: off}, true
}

// Offset reports the capability's config-space offset.
func (s SRIOVCap) Offset() int { return s.off }

// TotalVFs reports the hardware VF capacity.
func (s SRIOVCap) TotalVFs() int { return int(s.cfg.Read16(s.off + 0x0e)) }

// NumVFs reports the currently configured VF count.
func (s SRIOVCap) NumVFs() int { return int(s.cfg.Read16(s.off + 0x10)) }

// SetNumVFs programs the VF count. Must be done before enabling VFs.
func (s SRIOVCap) SetNumVFs(n int) { s.cfg.Write16(s.off+0x10, uint16(n)) }

// FirstVFOffset reports the routing-ID offset of VF0 from the PF.
func (s SRIOVCap) FirstVFOffset() int { return int(s.cfg.Read16(s.off + 0x14)) }

// VFStride reports the routing-ID stride between consecutive VFs.
func (s SRIOVCap) VFStride() int { return int(s.cfg.Read16(s.off + 0x16)) }

// VFDeviceID reports the device ID VFs present.
func (s SRIOVCap) VFDeviceID() uint16 { return s.cfg.Read16(s.off + 0x1a) }

// VFEnabled reports whether VF Enable is set.
func (s SRIOVCap) VFEnabled() bool { return s.cfg.Read16(s.off+0x08)&SRIOVCtlVFEnable != 0 }

// VFRID reports the routing ID of VF index i for a PF with the given RID.
func (s SRIOVCap) VFRID(pf RID, i int) RID {
	return pf.Offset(s.FirstVFOffset() + i*s.VFStride())
}

// ---- ACS extended capability (ID 0x000d) ----
//
// Layout:
//   +0 header
//   +4 ACS Capability (16) / ACS Control (16)

const acsBodySize = 4

// ACS control bits (subset the model uses).
const (
	ACSSourceValidation   = 1 << 0
	ACSP2PRequestRedirect = 1 << 2
	ACSUpstreamForwarding = 1 << 4
)

// ACSCap is a typed view of an ACS capability on a switch downstream port.
type ACSCap struct {
	cfg *ConfigSpace
	off int
}

// AddACSCap installs the ACS extended capability at off.
func AddACSCap(cfg *ConfigSpace, off int) ACSCap {
	cfg.AddExtCapability(ExtCapIDACS, 1, off, acsBodySize)
	caps := uint16(ACSSourceValidation | ACSP2PRequestRedirect | ACSUpstreamForwarding)
	cfg.writeRaw16(off+4, caps)
	return ACSCap{cfg: cfg, off: off}
}

// RedirectEnabled reports whether P2P request redirect is on.
func (a ACSCap) RedirectEnabled() bool {
	return a.cfg.Read16(a.off+6)&ACSP2PRequestRedirect != 0
}

// SetRedirect turns P2P request redirect on or off. With redirect on, a
// peer-to-peer TLP between two downstream ports is forced upstream through
// the root complex and IOMMU instead of being switched directly (§4.3).
func (a ACSCap) SetRedirect(on bool) {
	ctl := a.cfg.Read16(a.off + 6)
	if on {
		ctl |= ACSP2PRequestRedirect | ACSUpstreamForwarding
	} else {
		ctl &^= ACSP2PRequestRedirect | ACSUpstreamForwarding
	}
	a.cfg.Write16(a.off+6, ctl)
}
