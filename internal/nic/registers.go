package nic

import (
	"repro/internal/units"
)

// This file gives each function a register-level programming interface in
// BAR0, in the spirit of the 82576/82576VF datasheets the paper's drivers
// program. Drivers program the queue through MMIO writes (the same path a
// real igbvf would take), which is also what the hypervisor traps when it
// needs to intercept (§5.1's mask registers live next door in config space,
// but EITR and the ring pointers are BAR registers). The VF driver posts
// mailbox messages through Port.Mailbox, so BAR0 models no mailbox
// registers.

// Register offsets in BAR0 (a simplified 82576 layout; one queue per
// function).
const (
	RegCTRL   = 0x0000 // device control: bit 26 = reset
	RegEITR0  = 0x1680 // interrupt throttle, microseconds between interrupts
	RegRDT0   = 0x2818 // receive descriptor tail (driver returns buffers)
	RegRDLEN0 = 0x2808 // receive ring length, in descriptors
)

// CTRL bits.
const CtrlReset = 1 << 26

// InstallRegisters wires the queue's function so MMIO writes on BAR0 behave
// like the hardware: EITR programs the interrupt throttle, RDT returns
// receive buffers, RDLEN sizes the ring and CTRL.RST quiesces the queue.
// Every write acts on queue state directly; installing again is a no-op.
func (q *Queue) InstallRegisters() {
	if q.fn.OnMMIOWrite != nil {
		return
	}
	q.fn.OnMMIOWrite = func(bar int, off uint64, val uint64) {
		switch bar {
		case 0:
			q.regWrite(off, val)
		case MSIXTableBAR:
			q.msixWrite(off, val)
		}
	}
}

func (q *Queue) regWrite(off uint64, val uint64) {
	switch off {
	case RegCTRL:
		if val&CtrlReset != 0 {
			// Device reset (self-clearing): drop the ring, disable
			// interrupts, clear throttle state. The driver re-initializes
			// afterwards.
			q.wipeRing()
			q.intrEnabled = false
			q.throttledUntil = 0
		}
	case RegEITR0:
		q.SetITR(units.Duration(val) * units.Microsecond)
	case RegRDT0:
		// Driver returning buffers. Ring capacity is modeled directly, so
		// the write has no further effect.
	case RegRDLEN0:
		if val > 0 {
			q.SetRingCap(int(val))
		}
	}
}
