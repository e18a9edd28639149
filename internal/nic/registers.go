package nic

import (
	"repro/internal/units"
)

// This file gives each function a register-level programming interface in
// BAR0, in the spirit of the 82576/82576VF datasheets the paper's drivers
// program. Drivers program the queue through MMIO writes (the same path a
// real igbvf would take), which is also what the hypervisor traps when it
// needs to intercept (§5.1's mask registers live next door in config space,
// but EITR, ring pointers and the mailbox doorbell are BAR registers).

// Register offsets in BAR0 (a simplified 82576 layout; one queue per
// function).
const (
	RegCTRL   = 0x0000 // device control: bit 26 = reset
	RegEITR0  = 0x1680 // interrupt throttle, microseconds between interrupts
	RegRDT0   = 0x2818 // receive descriptor tail (driver returns buffers)
	RegRDLEN0 = 0x2808 // receive ring length, in descriptors

	// Mailbox (VF side): a doorbell register and an 8-dword message
	// buffer, after the 82576's VMB/VMBMEM pair.
	RegVMailbox = 0x0c40 // bit 0: request to PF
	RegVMBMem   = 0x0800 // message buffer: dword 0 = kind, 1..2 = arg
)

// CTRL bits.
const CtrlReset = 1 << 26

// registerFile holds the register state a later write acts on: the mailbox
// message buffer the doorbell posts.
type registerFile struct {
	mbox [8]uint32
}

// InstallRegisters wires the queue's function so MMIO writes on BAR0 behave
// like the hardware: EITR programs the interrupt throttle, RDT returns
// receive buffers, CTRL.RST quiesces the queue, and the mailbox doorbell
// posts the message buffer to the PF.
func (q *Queue) InstallRegisters() {
	if q.regs != nil {
		return
	}
	q.regs = &registerFile{}
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
	r := q.regs
	switch {
	case off == RegCTRL:
		if val&CtrlReset != 0 {
			// Device reset (self-clearing): drop the ring, disable
			// interrupts, clear throttle state. The driver re-initializes
			// afterwards.
			q.wipeRing()
			q.intrEnabled = false
			q.throttledUntil = 0
		}
	case off == RegEITR0:
		q.SetITR(units.Duration(val) * units.Microsecond)
	case off == RegRDT0:
		// Driver returning buffers. Ring capacity is modeled directly, so
		// the write has no further effect.
	case off == RegRDLEN0:
		if val > 0 {
			q.SetRingCap(int(val))
		}
	case off == RegVMailbox:
		if val&1 != 0 && q.fn.IsVF() {
			// Doorbell: post the message buffer to the PF. A busy mailbox
			// refuses the post (and counts it in Mailbox.Busy); the sender
			// sees no ack and retries, as it does on the direct path.
			_ = q.port.Mailbox().SendToPF(Message{
				Kind: MsgKind(r.mbox[0]),
				VF:   q.fn.VFIndex(),
				Arg:  uint64(r.mbox[1]) | uint64(r.mbox[2])<<32,
			})
		}
	case off >= RegVMBMem && off < RegVMBMem+32:
		r.mbox[(off-RegVMBMem)/4] = uint32(val)
	}
}
