package pcie

import "fmt"

// ConfigSpaceSize is the size of a PCIe extended configuration space.
const ConfigSpaceSize = 4096

// Standard configuration header offsets (type 0).
const (
	RegVendorID = 0x00 // 16-bit
	RegDeviceID = 0x02 // 16-bit
	RegCommand  = 0x04 // 16-bit
	RegStatus   = 0x06 // 16-bit
	RegBAR0     = 0x10 // six 32-bit BARs through 0x24
	RegCapPtr   = 0x34 // 8-bit, start of the legacy capability list
)

// Command register bits.
const (
	CmdMemSpace  = 1 << 1 // memory space enable
	CmdBusMaster = 1 << 2 // bus master (DMA) enable
	CmdIntxOff   = 1 << 10
)

// Status register bits.
const StatusCapList = 1 << 4 // capability list present

// Capability IDs (legacy space).
const (
	CapIDMSI    = 0x05
	CapIDMSIX   = 0x11
	CapIDPCIExp = 0x10
)

// Extended capability IDs (offset 0x100+ space).
const (
	ExtCapIDACS   = 0x000d
	ExtCapIDSRIOV = 0x0010
)

// ExtCapBase is where the extended capability chain begins.
const ExtCapBase = 0x100

// ConfigSpace is a byte-addressable 4 KiB PCIe configuration space with
// helpers for 8/16/32-bit access and for building capability chains.
//
// The space is plain storage: behaviour (what a write to a register *does*)
// belongs to the function that owns it. Reads of unimplemented space return
// zeros, and reads from a "non-present" function return all-ones, matching
// the bus behaviour enumeration code depends on.
type ConfigSpace struct {
	data [ConfigSpaceSize]byte
	// lastCap/lastExtCap track the tail of each capability chain so new
	// capabilities can be appended.
	lastCapPtr    int
	lastExtCapPtr int
	// present mirrors whether the function responds on the bus at all; a
	// VF before VF Enable reads as all-ones.
	present bool
}

// NewConfigSpace returns a config space with the standard header populated.
func NewConfigSpace(vendorID, deviceID uint16) *ConfigSpace {
	c := &ConfigSpace{present: true}
	c.Write16(RegVendorID, vendorID)
	c.Write16(RegDeviceID, deviceID)
	c.Write16(RegStatus, StatusCapList)
	return c
}

// SetPresent controls whether the function responds to configuration reads.
// A non-present function reads as all-ones (master abort), which is why a
// plain bus scan cannot find VFs before they are enabled (§4.1).
func (c *ConfigSpace) SetPresent(p bool) { c.present = p }

// Present reports whether the function responds on the bus.
func (c *ConfigSpace) Present() bool { return c.present }

func (c *ConfigSpace) check(off, n int) error {
	if off < 0 || off+n > ConfigSpaceSize {
		return fmt.Errorf("pcie: config access at %#x size %d out of range", off, n)
	}
	return nil
}

// Read8 reads one byte. Out-of-range or non-present reads return all-ones.
func (c *ConfigSpace) Read8(off int) uint8 {
	if !c.present || c.check(off, 1) != nil {
		return 0xff
	}
	return c.data[off]
}

// Read16 reads a little-endian 16-bit value.
func (c *ConfigSpace) Read16(off int) uint16 {
	if !c.present || c.check(off, 2) != nil {
		return 0xffff
	}
	return uint16(c.data[off]) | uint16(c.data[off+1])<<8
}

// Read32 reads a little-endian 32-bit value.
func (c *ConfigSpace) Read32(off int) uint32 {
	if !c.present || c.check(off, 4) != nil {
		return 0xffffffff
	}
	return uint32(c.data[off]) | uint32(c.data[off+1])<<8 |
		uint32(c.data[off+2])<<16 | uint32(c.data[off+3])<<24
}

// Write16 writes a little-endian 16-bit value.
func (c *ConfigSpace) Write16(off int, v uint16) {
	if !c.present || c.check(off, 2) != nil {
		return
	}
	c.data[off] = byte(v)
	c.data[off+1] = byte(v >> 8)
}

// Write32 writes a little-endian 32-bit value.
func (c *ConfigSpace) Write32(off int, v uint32) {
	if !c.present || c.check(off, 4) != nil {
		return
	}
	c.data[off] = byte(v)
	c.data[off+1] = byte(v >> 8)
	c.data[off+2] = byte(v >> 16)
	c.data[off+3] = byte(v >> 24)
}

// writeRaw16 stores a value regardless of presence — used by capability
// builders, which model the hardware initializing its own configuration
// space (a VF's capabilities exist before VF Enable makes them readable).
func (c *ConfigSpace) writeRaw16(off int, v uint16) {
	c.data[off] = byte(v)
	c.data[off+1] = byte(v >> 8)
}

// writeRaw32 stores a 32-bit value regardless of presence.
func (c *ConfigSpace) writeRaw32(off int, v uint32) {
	c.data[off] = byte(v)
	c.data[off+1] = byte(v >> 8)
	c.data[off+2] = byte(v >> 16)
	c.data[off+3] = byte(v >> 24)
}

// AddCapability appends a legacy capability of the given id and body size
// (excluding the 2-byte header) at offset off, linking it into the chain at
// 0x34. It returns the capability offset.
func (c *ConfigSpace) AddCapability(id uint8, off, bodySize int) int {
	if err := c.check(off, bodySize+2); err != nil {
		panic(err)
	}
	if off >= ExtCapBase {
		panic("pcie: legacy capability must live below 0x100")
	}
	c.data[off] = id
	c.data[off+1] = 0 // next pointer, fixed up below
	if c.lastCapPtr == 0 {
		c.data[RegCapPtr] = byte(off)
	} else {
		c.data[c.lastCapPtr+1] = byte(off)
	}
	c.lastCapPtr = off
	return off
}

// AddExtCapability appends an extended capability (id, version) at offset
// off in extended space, linking it into the chain at 0x100.
func (c *ConfigSpace) AddExtCapability(id uint16, version uint8, off, bodySize int) int {
	if off < ExtCapBase {
		panic("pcie: extended capability must live at or above 0x100")
	}
	if err := c.check(off, bodySize+4); err != nil {
		panic(err)
	}
	hdr := uint32(id) | uint32(version&0xf)<<16
	if c.lastExtCapPtr == 0 {
		if off != ExtCapBase {
			// First ext cap conventionally sits at 0x100; allow others but
			// plant a passthrough header at 0x100 pointing to it.
			c.writeRaw32(ExtCapBase, uint32(0xffff)|uint32(off)<<20)
		}
	} else {
		prev := uint32(c.data[c.lastExtCapPtr]) | uint32(c.data[c.lastExtCapPtr+1])<<8 |
			uint32(c.data[c.lastExtCapPtr+2])<<16 | uint32(c.data[c.lastExtCapPtr+3])<<24
		prev = (prev & 0x000fffff) | uint32(off)<<20
		c.writeRaw32(c.lastExtCapPtr, prev)
	}
	c.writeRaw32(off, hdr)
	c.lastExtCapPtr = off
	return off
}

// FindCapability walks the legacy capability chain for id, returning its
// offset or 0.
func (c *ConfigSpace) FindCapability(id uint8) int {
	if c.Read16(RegStatus)&StatusCapList == 0 {
		return 0
	}
	off := int(c.Read8(RegCapPtr))
	for hops := 0; off != 0 && off != 0xff && hops < 48; hops++ {
		if c.Read8(off) == id {
			return off
		}
		off = int(c.Read8(off + 1))
	}
	return 0
}

// FindExtCapability walks the extended capability chain for id, returning
// its offset or 0.
func (c *ConfigSpace) FindExtCapability(id uint16) int {
	off := ExtCapBase
	for hops := 0; off != 0 && hops < 64; hops++ {
		hdr := c.Read32(off)
		if hdr == 0 || hdr == 0xffffffff {
			return 0
		}
		if uint16(hdr&0xffff) == id {
			return off
		}
		off = int(hdr >> 20)
	}
	return 0
}
