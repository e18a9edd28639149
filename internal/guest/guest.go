// Package guest models the guest-OS side of the receive path: the softirq /
// socket / application pipeline that consumes what the driver's ISR drains
// from the device, with the per-packet and per-interrupt CPU costs the
// paper's utilization numbers are made of, and the socket-buffer burst limit
// behind §5.3's overflow-avoidance argument.
package guest

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/vmm"
)

// ReceiverStats counts what reached the application.
type ReceiverStats struct {
	AppPackets  int64
	AppBytes    units.Size
	SockDropped int64 // overflow beyond the socket burst capacity
	Interrupts  int64
}

// NetReceiver is one interface's receive pipeline inside a guest (or the
// native host): stack processing, socket buffering, netserver consumption.
type NetReceiver struct {
	hv  *vmm.Hypervisor
	dom *vmm.Domain

	// Burst is the largest per-interrupt batch absorbed without loss
	// (model.SocketBurstCapacity by default).
	Burst int

	// PerPacketExtra adds flavour-specific per-packet cost (netfront ring
	// handling for PV, nothing for a VF).
	PerPacketExtra units.Cycles

	Stats ReceiverStats

	// Latency histograms packet delivery latency (ring wait), the §5.3
	// trade-off the coalescing policies move along.
	Latency *obs.Hist

	// OnDeliver, when set, runs after each application delivery with the
	// accepted packet count — request/response workloads hook the
	// server's reply here.
	OnDeliver func(pkts int)
}

// NewNetReceiver creates a receiver for the domain with default burst
// capacity.
func NewNetReceiver(hv *vmm.Hypervisor, dom *vmm.Domain) *NetReceiver {
	return &NetReceiver{
		hv: hv, dom: dom, Burst: model.SocketBurstCapacity,
		Latency: obs.NewHist(
			50*units.Microsecond, 100*units.Microsecond, 250*units.Microsecond,
			500*units.Microsecond, units.Millisecond, 2*units.Millisecond,
			5*units.Millisecond,
		),
	}
}

// ObserveLatency records the mean ring wait of a drained batch.
func (r *NetReceiver) ObserveLatency(wait units.Duration) {
	r.Latency.Observe(wait)
}

// OnInterrupt charges the fixed per-interrupt guest cost (ISR entry, NAPI
// scheduling, softirq dispatch).
func (r *NetReceiver) OnInterrupt() {
	r.Stats.Interrupts++
	r.hv.ChargeGuest(r.dom, model.GuestPerInterruptCycles)
}

// DeliverBatch processes one drained batch through the stack to the
// application, enforcing the socket burst limit, and reports how many
// packets the application actually received.
func (r *NetReceiver) DeliverBatch(n int, bytes units.Size) int {
	if n <= 0 {
		return 0
	}
	accepted := n
	if r.Burst > 0 && accepted > r.Burst {
		accepted = r.Burst
		r.Stats.SockDropped += int64(n - accepted)
	}
	perPkt := bytes / units.Size(n)
	perPacketCost := model.GuestPerPacketCycles + r.PerPacketExtra
	if r.dom.Type == vmm.PVM {
		// §6.4: every user/kernel crossing in x86-64 XenLinux bounces
		// through the hypervisor to switch page tables.
		perPacketCost += model.PVMSyscallExtraCyclesPerPacket
	}
	r.hv.ChargeGuest(r.dom, units.Cycles(accepted)*perPacketCost)
	r.Stats.AppPackets += int64(accepted)
	r.Stats.AppBytes += perPkt * units.Size(accepted)
	if r.OnDeliver != nil {
		r.OnDeliver(accepted)
	}
	return accepted
}

// NetSender models the transmit side of a guest running netperf: syscall
// per message plus per-packet stack cost. The actual movement of bytes is
// done by whatever driver the caller wires up.
type NetSender struct {
	hv  *vmm.Hypervisor
	dom *vmm.Domain

	// PerPacketExtra adds flavour-specific per-packet cost.
	PerPacketExtra units.Cycles
}

// NewNetSender creates a sender for the domain.
func NewNetSender(hv *vmm.Hypervisor, dom *vmm.Domain) *NetSender {
	return &NetSender{hv: hv, dom: dom}
}

// SendMessage charges the cost of one message of the given size split into
// packets of at most frame bytes, and reports the packet count.
func (s *NetSender) SendMessage(msgSize, frame units.Size) int {
	if frame <= 0 || msgSize <= 0 {
		return 0
	}
	pkts := int((msgSize + frame - 1) / frame)
	cost := model.SyscallPerMessageCycles +
		units.Cycles(pkts)*(model.GuestPerPacketCycles/2+s.PerPacketExtra)
	if s.dom.Type == vmm.PVM {
		cost += model.PVMSyscallExtraCyclesPerPacket
	}
	s.hv.ChargeGuest(s.dom, cost)
	return pkts
}
