// Package interrupts models the x86 interrupt machinery the paper's
// critical path runs through: MSI messages, a global vector allocator (Xen
// allocates vectors globally to avoid interrupt sharing, §4.1), and a local
// APIC with IRR/ISR priority state and the EOI register whose emulation §5.2
// optimizes.
package interrupts

import (
	"fmt"
	"math/bits"
)

// Vector is an x86 interrupt vector (32-255 usable).
type Vector uint8

// FirstUsableVector is the lowest vector available for devices.
const FirstUsableVector Vector = 32

// MSIMessage is the address/data pair a function writes to signal an MSI.
type MSIMessage struct {
	Addr uint64
	Data uint32
}

// MSIAddressBase is the architectural MSI address window.
const MSIAddressBase = 0xfee00000

// NewMSIMessage encodes a fixed-delivery MSI to the given vector.
func NewMSIMessage(v Vector) MSIMessage {
	return MSIMessage{Addr: MSIAddressBase, Data: uint32(v)}
}

// Allocator hands out machine vectors globally, never sharing one between
// two sources, so the hypervisor can identify the owning guest from the
// vector alone (§4.1: "which is globally allocated to avoid interrupt
// sharing").
type Allocator struct {
	next  Vector
	owner map[Vector]string
}

// NewAllocator returns an allocator starting at the first usable vector.
func NewAllocator() *Allocator {
	return &Allocator{next: FirstUsableVector, owner: make(map[Vector]string)}
}

// Alloc assigns a free vector to the named owner. The scan starts at the
// rotor position (so consecutive allocations spread across the vector space
// rather than immediately recycling a just-freed vector), skips vectors that
// are still live, wraps past 255 back to the first usable vector, and fails
// only when all usable vectors are owned.
func (a *Allocator) Alloc(owner string) (Vector, error) {
	const usable = 256 - int(FirstUsableVector)
	if len(a.owner) >= usable {
		return 0, fmt.Errorf("interrupts: out of vectors")
	}
	v := a.next
	if v < FirstUsableVector {
		v = FirstUsableVector
	}
	for i := 0; i < usable; i++ {
		if _, live := a.owner[v]; !live {
			a.owner[v] = owner
			if v == 255 {
				a.next = FirstUsableVector
			} else {
				a.next = v + 1
			}
			return v, nil
		}
		if v == 255 {
			v = FirstUsableVector
		} else {
			v++
		}
	}
	return 0, fmt.Errorf("interrupts: out of vectors")
}

// Free releases a vector.
func (a *Allocator) Free(v Vector) { delete(a.owner, v) }

// LAPIC models a local APIC's interrupt state: the IRR (requested), ISR
// (in service) and the EOI register. The HVM guest's virtual LAPIC is an
// instance of this, emulated by the hypervisor. IRR and ISR are the
// architectural 256-bit registers, one bit per vector, so finding the
// highest set vector is a leading-zero count per 64-bit word rather than a
// scan of 256 flags.
type LAPIC struct {
	irr apicReg
	isr apicReg
}

// apicReg is a 256-bit APIC register (IRR, ISR): bit v%64 of word v/64
// stands for vector v.
type apicReg [4]uint64

func (r *apicReg) has(v Vector) bool { return r[v>>6]&(1<<(v&63)) != 0 }
func (r *apicReg) set(v Vector)      { r[v>>6] |= 1 << (v & 63) }
func (r *apicReg) clear(v Vector)    { r[v>>6] &^= 1 << (v & 63) }

// highest returns the highest set vector, or -1 when the register is clear.
func (r *apicReg) highest() int {
	for w := len(r) - 1; w >= 0; w-- {
		if r[w] != 0 {
			return w<<6 + bits.Len64(r[w]) - 1
		}
	}
	return -1
}

// Inject sets the vector pending in the IRR. It reports whether the vector
// was newly pended (false if it was already pending — interrupt merging).
func (l *LAPIC) Inject(v Vector) bool {
	if l.irr.has(v) {
		return false
	}
	l.irr.set(v)
	return true
}

// Pending reports whether any deliverable interrupt is pending. APIC
// priority is the 16-vector class (vector >> 4): the highest pending vector
// is deliverable only when its class is strictly above the class of the
// highest in-service vector — a pending vector in the *same* class must
// wait for the EOI even if its number is higher.
func (l *LAPIC) Pending() (Vector, bool) {
	hp := l.irr.highest()
	if hp < 0 {
		return 0, false
	}
	if hs := l.isr.highest(); hs >= 0 && hs>>4 >= hp>>4 {
		return 0, false
	}
	return Vector(hp), true
}

// Ack moves the highest-priority pending vector from IRR to ISR, modeling
// interrupt delivery to the CPU. It reports ok=false if nothing is
// deliverable.
func (l *LAPIC) Ack() (Vector, bool) {
	v, ok := l.Pending()
	if !ok {
		return 0, false
	}
	l.irr.clear(v)
	l.isr.set(v)
	return v, true
}

// EOI clears the highest-priority in-service vector ("Upon receiving a
// virtual EOI, the APIC device model clears the highest priority virtual
// interrupt in servicing, and dispatches the next highest priority
// interrupt", §5.2). It returns the next deliverable vector, if any. An EOI
// with nothing in service is spurious and changes nothing.
func (l *LAPIC) EOI() (next Vector, ok bool) {
	hs := l.isr.highest()
	if hs < 0 {
		return 0, false
	}
	l.isr.clear(Vector(hs))
	return l.Pending()
}

// EventChannelPort identifies one Xen event channel.
type EventChannelPort int

// EventChannels models the Xen paravirtualized interrupt controller: a flat
// array of pending bits — no priorities, no EOI
// register, which is why it is cheaper than a virtual LAPIC (§6.4).
type EventChannels struct {
	pending []bool
	bound   []string
}

// NewEventChannels creates a controller with n ports.
func NewEventChannels(n int) *EventChannels {
	return &EventChannels{
		pending: make([]bool, n),
		bound:   make([]string, n),
	}
}

// Bind allocates a free port for the named source.
func (e *EventChannels) Bind(source string) (EventChannelPort, error) {
	for i := range e.bound {
		if e.bound[i] == "" {
			e.bound[i] = source
			e.pending[i] = false
			return EventChannelPort(i), nil
		}
	}
	return 0, fmt.Errorf("interrupts: no free event channel ports")
}

// Unbind releases a port.
func (e *EventChannels) Unbind(p EventChannelPort) {
	e.bound[p] = ""
	e.pending[p] = false
}

// Notify sets the port pending. It reports whether an upcall should be
// delivered (port bound, newly pending).
func (e *EventChannels) Notify(p EventChannelPort) bool {
	if int(p) >= len(e.pending) || e.bound[p] == "" {
		return false
	}
	if e.pending[p] {
		return false // already pending: merged
	}
	e.pending[p] = true
	return true
}

// Consume clears the pending bit, returning whether it was set.
func (e *EventChannels) Consume(p EventChannelPort) bool {
	was := e.pending[p]
	e.pending[p] = false
	return was
}
