package nic

import (
	"repro/internal/units"
)

// This file gives each function a register-level programming interface in
// BAR0, in the spirit of the 82576/82576VF datasheets the paper's drivers
// program. Drivers interact with the queue through MMIO reads/writes (the
// same path a real igbvf would take), which is also what the hypervisor
// traps when it needs to intercept (§5.1's mask registers live next door in
// config space, but EITR, ring pointers and the mailbox doorbell are BAR
// registers).

// Register offsets in BAR0 (a simplified 82576 layout; one queue per
// function).
const (
	RegCTRL   = 0x0000 // device control: bit 26 = reset
	RegSTATUS = 0x0008 // device status: bit 1 = link up
	RegEITR0  = 0x1680 // interrupt throttle, microseconds between interrupts
	RegRDH0   = 0x2810 // receive descriptor head (read-only: NIC-owned)
	RegRDT0   = 0x2818 // receive descriptor tail (driver returns buffers)
	RegRDLEN0 = 0x2808 // receive ring length, in descriptors

	// Mailbox (VF side): a doorbell register and an 8-dword message
	// buffer, after the 82576's VMB/VMBMEM pair.
	RegVMailbox = 0x0c40 // bit 0: request to PF; bit 1: message consumed
	RegVMBMem   = 0x0800 // message buffer: dword 0 = kind, 1..2 = arg
)

// CTRL bits.
const CtrlReset = 1 << 26

// STATUS bits.
const StatusLinkUp = 1 << 1

// registerFile holds the software-visible register state of one queue.
type registerFile struct {
	ctrl     uint64
	eitrUS   uint64
	rdt      uint64
	mbox     [8]uint32
	mboxDB   uint64
	resets   int64
	rdtMoves int64
}

// InstallRegisters wires the queue's function so MMIO reads/writes on BAR0
// behave like the hardware: EITR programs the interrupt throttle, RDT
// returns receive buffers, CTRL.RST quiesces the queue, and the mailbox
// doorbell posts the message buffer to the PF.
func (q *Queue) InstallRegisters() {
	if q.regs != nil {
		return
	}
	q.regs = &registerFile{}
	if q.fn.IsVF() && q.msix == nil {
		q.installMSIXTable(3)
	}
	fn := q.fn
	fn.OnMMIORead = func(bar int, off uint64) uint64 {
		switch bar {
		case 0:
			return q.regRead(off)
		case MSIXTableBAR:
			return q.msixRead(off)
		default:
			return 0
		}
	}
	fn.OnMMIOWrite = func(bar int, off uint64, val uint64) {
		switch bar {
		case 0:
			q.regWrite(off, val)
		case MSIXTableBAR:
			q.msixWrite(off, val)
		}
	}
}

// Registers reports whether the register file is installed.
func (q *Queue) Registers() bool { return q.regs != nil }

func (q *Queue) regRead(off uint64) uint64 {
	r := q.regs
	switch {
	case off == RegCTRL:
		return r.ctrl
	case off == RegSTATUS:
		if q.port.linkUp {
			return StatusLinkUp
		}
		return 0
	case off == RegEITR0:
		return r.eitrUS
	case off == RegRDH0:
		// Head advances as the NIC fills descriptors: expose occupancy.
		return uint64(q.occupied)
	case off == RegRDT0:
		return r.rdt
	case off == RegRDLEN0:
		return uint64(q.ringCap)
	case off == RegVMailbox:
		return r.mboxDB
	case off >= RegVMBMem && off < RegVMBMem+32:
		return uint64(r.mbox[(off-RegVMBMem)/4])
	default:
		return 0
	}
}

func (q *Queue) regWrite(off uint64, val uint64) {
	r := q.regs
	switch {
	case off == RegCTRL:
		r.ctrl = val
		if val&CtrlReset != 0 {
			// Device reset: drop the ring, disable interrupts, clear
			// throttle state. The driver re-initializes afterwards.
			q.wipeRing()
			q.intrEnabled = false
			q.throttledUntil = 0
			r.ctrl &^= CtrlReset // self-clearing
			r.resets++
		}
	case off == RegEITR0:
		r.eitrUS = val
		q.SetITR(units.Duration(val) * units.Microsecond)
	case off == RegRDT0:
		// Driver returning buffers; ring capacity is modeled directly, so
		// this is bookkeeping plus a write-posting cost on real hardware.
		r.rdt = val
		r.rdtMoves++
	case off == RegRDLEN0:
		if val > 0 {
			q.SetRingCap(int(val))
		}
	case off == RegVMailbox:
		r.mboxDB = val
		if val&1 != 0 && q.fn.IsVF() {
			// Doorbell: post the message buffer to the PF.
			msg := Message{
				Kind: MsgKind(r.mbox[0]),
				VF:   q.fn.VFIndex(),
				Arg:  uint64(r.mbox[1]) | uint64(r.mbox[2])<<32,
			}
			if q.port.Mailbox().SendToPF(msg) == nil {
				r.mboxDB &^= 1
			}
		}
	case off >= RegVMBMem && off < RegVMBMem+32:
		r.mbox[(off-RegVMBMem)/4] = uint32(val)
	}
}

// resetHW wipes the register file the way an FLR does, keeping the
// diagnostic reset/RDT counters (they are model bookkeeping, not device
// state).
func (r *registerFile) resetHW() {
	r.ctrl = 0
	r.eitrUS = 0
	r.rdt = 0
	r.mbox = [8]uint32{}
	r.mboxDB = 0
	r.resets++
}

// Resets reports how many device resets the queue has seen.
func (q *Queue) Resets() int64 {
	if q.regs == nil {
		return 0
	}
	return q.regs.resets
}

// RDTWrites reports tail-pointer writes (driver buffer returns).
func (q *Queue) RDTWrites() int64 {
	if q.regs == nil {
		return 0
	}
	return q.regs.rdtMoves
}
