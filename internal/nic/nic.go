// Package nic models an Intel 82576-class SR-IOV capable Gigabit Ethernet
// controller: a PF per port with up to 7 VFs, receive queues with descriptor
// rings, a layer-2 switch classifying by MAC/VLAN, per-queue interrupt
// throttling (EITR), the PF↔VF mailbox/doorbell channel, and the internal
// DMA path that switches VM-to-VM traffic inside the NIC without touching
// the wire (§6.3).
//
// Packets are modeled as batches (count + bytes + destination) — the paper's
// results depend on packet and interrupt *rates*, ring occupancy and DMA
// bandwidth, not payload contents.
package nic

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

// MAC is a 48-bit Ethernet address held in a comparable integer.
type MAC uint64

// String renders the MAC conventionally.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// Broadcast is the all-ones destination MAC. The cluster fabric floods it
// to every port; ports without a matching filter drop it like any other
// unclassified frame.
const Broadcast MAC = 0xffff_ffff_ffff

// Batch is a group of same-destination frames moving together.
type Batch struct {
	Dst MAC
	// Src identifies the transmitting interface. The single-host paths
	// ignore it; the cluster fabric's ToR switch learns (Src → ingress
	// port) from it. Zero means unknown — such frames are forwarded but
	// never learned.
	Src   MAC
	VLAN  uint16 // 0 = untagged
	Count int
	Bytes units.Size

	// SentAt is the TX doorbell time: when the sender handed the batch to
	// the NIC. The port's entry points stamp it if the source did not, and
	// the observability layer measures per-hop latency from it. Zero means
	// unstamped.
	SentAt units.Time
}

// arrivalRec is one accepted batch's bookkeeping for latency accounting:
// the doorbell stamp, the ring-insert (DMA complete) time, and — once the
// queue interrupts — the fire time, so Drain can attribute each hop.
type arrivalRec struct {
	count  int
	when   units.Time // DMA complete (ring insert)
	sentAt units.Time // TX doorbell; zero if the batch was unstamped
	intrAt units.Time // interrupt fire; zero until the queue fires
}

// arrivalRing is a FIFO of arrival records backed by a growable circular
// buffer, so the steady-state deliver→drain cycle reuses slots instead of
// the append/reslice churn a plain slice would pay per batch.
type arrivalRing struct {
	buf  []arrivalRec
	head int
	n    int
}

func (r *arrivalRing) len() int { return r.n }

// at returns the i-th record from the front (0 = oldest).
func (r *arrivalRing) at(i int) *arrivalRec {
	return &r.buf[(r.head+i)%len(r.buf)]
}

func (r *arrivalRing) push(rec arrivalRec) {
	if r.n == len(r.buf) {
		grown := make([]arrivalRec, 2*len(r.buf)+16)
		for i := 0; i < r.n; i++ {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = rec
	r.n++
}

func (r *arrivalRing) popFront() {
	r.buf[r.head] = arrivalRec{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// reset empties the ring, keeping the buffer for reuse (hardware reset).
func (r *arrivalRing) reset() {
	for i := range r.buf {
		r.buf[i] = arrivalRec{}
	}
	r.head, r.n = 0, 0
}

// QueueStats are the per-queue counters. RxPackets, Drained, Occupied and
// ResetDropped together form the ring-conservation identity the invariant
// checker audits: every packet accepted into the queue (RxPackets) was
// handed to software (Drained), is still sitting in the ring (Occupied), or
// was wiped by a hardware reset (ResetDropped).
type QueueStats struct {
	RxPackets    int64
	ResetDropped int64 // wiped from the ring by FLR / global device reset
	// Drained counts packets handed to software: ring drains by the driver's
	// poll loop, plus DirectDeliver handoffs (which bypass the ring).
	Drained int64
	// SpuriousIntr counts interrupts fired with nothing pending — always
	// zero unless the cause-tracking logic regresses (interrupt-liveness
	// invariant).
	SpuriousIntr int64
}

// newQueue constructs a queue with its throttle-timer name and callback
// created once, so the steady-state interrupt path never allocates.
func newQueue(p *Port, fn *pcie.Function, name string) *Queue {
	q := &Queue{port: p, fn: fn, name: name, ringCap: model.RxRingEntries}
	q.itrEvName = "nic:itr:" + name
	q.itrFire = func() {
		if q.intrEnabled && !q.masked && q.occupied > 0 && q.Sink != nil {
			q.fire(q.port.eng.Now())
		}
	}
	return q
}

// Queue is the receive side of one function (PF or VF): a descriptor ring,
// interrupt throttle state, and the attachment points the hypervisor or
// native OS installs.
type Queue struct {
	port *Port
	fn   *pcie.Function
	name string

	ringCap  int
	occupied int
	occBytes units.Size

	// arrivals records (count, arrival time) per accepted batch, FIFO, so
	// Drain can report how long packets waited in the ring — the latency
	// side of the §5.3 coalescing trade-off.
	arrivals arrivalRing
	// lastDrainWait is the mean ring wait of the most recent Drain.
	lastDrainWait units.Duration

	// Interrupt state.
	itrInterval    units.Duration // minimum gap between interrupts; 0 = immediate
	intrEnabled    bool
	masked         bool
	throttledUntil units.Time
	timer          sim.Handle
	// itrEvName and itrFire are created once at queue construction so
	// re-arming the throttle timer costs no string concat and no closure.
	itrEvName string
	itrFire   func()

	// stalled wedges the queue's DMA engine (injected fault): deliveries
	// are lost and no interrupts fire until cleared.
	stalled bool

	// Sink receives the MSI: the hypervisor's physical-interrupt entry
	// point, or the native OS's ISR when not virtualized.
	Sink func(q *Queue)

	// DMACheck validates a delivery's DMA the way the fabric+IOMMU would;
	// installed when the function is assigned. A non-nil error drops the
	// batch.
	DMACheck func(bytes units.Size) error

	// DirectDeliver, when set, receives batches instead of the descriptor
	// ring. Host-terminated paths (the dom0 bridge feeding netback, VMDq)
	// use it: the next hop is software with its own queueing, and it needs
	// the batch's destination, which the ring does not preserve.
	DirectDeliver func(Batch)

	// Per-hop latency tracks, created lazily on first delivery so only
	// queues that see traffic register instruments. track is the per-queue
	// view ("path.<queue>.*"); vmTrack, installed by the VF driver, is the
	// per-VM view ("path.vm.<domain>.*"). Both are nil-safe.
	track   *obs.PathTrack
	vmTrack *obs.PathTrack
	// intrFired is the "nic.<queue>.intr_fired" counter.
	intrFired *obs.Counter

	Stats QueueStats
}

// SetVMTrack attributes this queue's hop latencies to a per-VM track in
// addition to the per-queue one (the VF driver installs it at attach).
func (q *Queue) SetVMTrack(t *obs.PathTrack) { q.vmTrack = t }

// ensureObs lazily registers the queue's instruments once traffic arrives.
func (q *Queue) ensureObs() {
	if q.track == nil && q.port.Obs != nil {
		q.track = obs.NewPathTrack(q.port.Obs, "path."+q.name)
		q.intrFired = q.port.Obs.Counter("nic." + q.name + ".intr_fired")
	}
}

// Name reports the queue name.
func (q *Queue) Name() string { return q.name }

// Function reports the owning PCIe function.
func (q *Queue) Function() *pcie.Function { return q.fn }

// SetRingCap resizes the descriptor ring (driver configuration).
func (q *Queue) SetRingCap(n int) {
	if n <= 0 {
		panic("nic: ring capacity must be positive")
	}
	q.ringCap = n
}

// Occupied reports packets waiting in the ring.
func (q *Queue) Occupied() int { return q.occupied }

// SetITR programs the interrupt throttle: at most one interrupt per
// interval. Zero disables throttling. This is the EITR register the VF
// driver (and AIC) programs.
func (q *Queue) SetITR(interval units.Duration) {
	if interval < 0 {
		interval = 0
	}
	q.itrInterval = interval
}

// SetIntrEnabled turns MSI generation on or off (driver init/teardown).
func (q *Queue) SetIntrEnabled(on bool) {
	q.intrEnabled = on
	if on {
		q.maybeInterrupt()
	}
}

// IntrEnabled reports whether MSI generation is on — false between a reset
// and the driver's re-initialization, which health monitors treat as "the
// slave is down".
func (q *Queue) IntrEnabled() bool { return q.intrEnabled }

// SetStalled wedges or unwedges the queue's DMA engine (fault injection).
// While stalled, deliveries are lost; clearing the stall lets pending ring
// occupancy interrupt again.
func (q *Queue) SetStalled(s bool) {
	if q.stalled == s {
		return
	}
	q.stalled = s
	q.port.Tracer.Emitf(q.port.eng.Now(), "nic", "stall",
		"%s stalled=%v", q.name, s)
	if !s {
		q.maybeInterrupt()
	}
}

// Stalled reports whether the DMA engine is wedged.
func (q *Queue) Stalled() bool { return q.stalled }

// ResetHW clears the queue's hardware state the way an FLR or global device
// reset does: ring and interrupt/throttle state, the MSI-X mask included.
// Host-side wiring (Sink, DMACheck, DirectDeliver) survives — those model
// the IOMMU context and interrupt routing, which a function reset does not
// touch.
func (q *Queue) ResetHW() {
	q.wipeRing()
	q.intrEnabled = false
	q.masked = false
	q.itrInterval = 0
	q.throttledUntil = 0
	q.timer.Cancel()
}

// wipeRing empties the descriptor ring for a hardware reset (FLR, global
// device reset, or CTRL.RST). Packets in the ring die with the reset; they
// are counted in ResetDropped so the ring conservation identity survives
// every reset path.
func (q *Queue) wipeRing() {
	q.Stats.ResetDropped += int64(q.occupied)
	q.occupied = 0
	q.occBytes = 0
	q.arrivals.reset()
}

// SetMasked reflects the guest's MSI mask state into the queue. Unmasking
// with packets pending fires immediately (subject to the throttle).
func (q *Queue) SetMasked(m bool) {
	q.masked = m
	if !m {
		q.maybeInterrupt()
	}
}

// deliver places a batch in the ring, dropping what does not fit, then
// considers raising an interrupt.
func (q *Queue) deliver(b Batch) {
	// A wedged DMA engine and an IOMMU-rejected delivery both lose the
	// batch.
	if q.stalled {
		return
	}
	if q.DMACheck != nil && q.DMACheck(b.Bytes) != nil {
		return
	}
	if q.DirectDeliver != nil {
		q.Stats.RxPackets += int64(b.Count)
		// The batch never enters the ring: it is handed to software here.
		q.Stats.Drained += int64(b.Count)
		if b.SentAt > 0 {
			q.ensureObs()
			d := q.port.eng.Now().Sub(b.SentAt)
			q.track.ObserveDoorbellToDMA(d, int64(b.Count))
			q.vmTrack.ObserveDoorbellToDMA(d, int64(b.Count))
		}
		q.DirectDeliver(b)
		return
	}
	free := q.ringCap - q.occupied
	accept := b.Count
	if accept > free {
		accept = free // ring overflow
	}
	if accept > 0 {
		perPkt := b.Bytes / units.Size(b.Count)
		now := q.port.eng.Now()
		q.occupied += accept
		q.occBytes += perPkt * units.Size(accept)
		q.Stats.RxPackets += int64(accept)
		q.arrivals.push(arrivalRec{count: accept, when: now, sentAt: b.SentAt})
		q.ensureObs()
		if b.SentAt > 0 {
			d := now.Sub(b.SentAt)
			q.track.ObserveDoorbellToDMA(d, int64(accept))
			q.vmTrack.ObserveDoorbellToDMA(d, int64(accept))
		}
	}
	q.maybeInterrupt()
}

// Drain removes up to max packets from the ring (the driver's poll loop),
// returning the packet count and bytes taken.
func (q *Queue) Drain(max int) (int, units.Size) {
	n := q.occupied
	if max >= 0 && n > max {
		n = max
	}
	if n == 0 {
		return 0, 0
	}
	perPkt := q.occBytes / units.Size(q.occupied)
	bytes := perPkt * units.Size(n)
	q.occupied -= n
	q.occBytes -= bytes
	q.Stats.Drained += int64(n)
	// Latency accounting: consume arrival records FIFO and report the
	// mean wait of the drained packets.
	now := q.port.eng.Now()
	remaining := n
	var waitSum int64
	for remaining > 0 && q.arrivals.len() > 0 {
		rec := q.arrivals.at(0)
		take := rec.count
		if take > remaining {
			take = remaining
		}
		waitSum += int64(take) * int64(now.Sub(rec.when))
		if rec.intrAt != 0 {
			d := now.Sub(rec.intrAt)
			q.track.ObserveIntrToDrain(d, int64(take))
			q.vmTrack.ObserveIntrToDrain(d, int64(take))
		}
		rec.count -= take
		remaining -= take
		if rec.count == 0 {
			// Fully consumed: emit this batch's journey as display spans
			// for the trace exporter, one per hop, then release the slot
			// back to the ring (guest-drain time is where pooled arrival
			// state is returned).
			if tr := q.port.Tracer; tr != nil && rec.intrAt != 0 {
				if rec.sentAt > 0 {
					tr.AddSpan(q.name, "doorbell→dma", rec.sentAt, rec.when.Sub(rec.sentAt))
				}
				tr.AddSpan(q.name, "dma→intr", rec.when, rec.intrAt.Sub(rec.when))
				tr.AddSpan(q.name, "intr→drain", rec.intrAt, now.Sub(rec.intrAt))
			}
			q.arrivals.popFront()
		}
	}
	q.lastDrainWait = units.Duration(waitSum / int64(n))
	return n, bytes
}

// LastDrainWait reports the mean time the most recently drained packets
// spent waiting in the descriptor ring (dominated by the interrupt
// throttle).
func (q *Queue) LastDrainWait() units.Duration { return q.lastDrainWait }

// IntrStuck reports whether the queue holds a deliverable pending cause
// with no way for it to ever interrupt: packets in the ring, interrupts
// enabled and unmasked, DMA engine running, a sink installed — yet no
// throttle timer armed and the throttle window already past. A true return
// at quiesce is an interrupt-liveness violation (the cause would sit
// forever); every legal state either has the interrupt already delivered,
// a timer pending, or an external condition (mask, stall, disable) that
// some later event clears through a path that calls maybeInterrupt.
func (q *Queue) IntrStuck(now units.Time) bool {
	if q.occupied == 0 || !q.intrEnabled || q.masked || q.stalled || q.Sink == nil {
		return false
	}
	return !q.timer.Pending() && now >= q.throttledUntil
}

func (q *Queue) maybeInterrupt() {
	if !q.intrEnabled || q.masked || q.stalled || q.Sink == nil || q.occupied == 0 {
		return
	}
	now := q.port.eng.Now()
	if now >= q.throttledUntil {
		q.fire(now)
		return
	}
	if q.timer.Pending() {
		return
	}
	q.timer = q.port.eng.At(q.throttledUntil, q.itrEvName, q.itrFire)
}

func (q *Queue) fire(now units.Time) {
	q.intrFired.Inc()
	if q.occupied == 0 {
		// No pending cause: every fire path checks occupancy first, so this
		// only trips if the cause tracking regresses.
		q.Stats.SpuriousIntr++
	}
	// Stamp the pending arrivals this interrupt covers and record the
	// ring-wait hops. dma→intr carries the EITR throttle wait — the latency
	// side of the §5.3 coalescing trade-off.
	for i := 0; i < q.arrivals.len(); i++ {
		rec := q.arrivals.at(i)
		if rec.intrAt != 0 {
			continue
		}
		rec.intrAt = now
		n := int64(rec.count)
		q.track.ObserveDMAToIntr(now.Sub(rec.when), n)
		q.vmTrack.ObserveDMAToIntr(now.Sub(rec.when), n)
		if rec.sentAt > 0 {
			q.track.ObserveDoorbellToIntr(now.Sub(rec.sentAt), n)
			q.vmTrack.ObserveDoorbellToIntr(now.Sub(rec.sentAt), n)
		}
	}
	q.throttledUntil = now.Add(q.itrInterval)
	q.Sink(q)
}

// Port is one 1 GbE port: a PF, its VFs, the L2 switch and the internal DMA
// budget for VM-to-VM switching.
type Port struct {
	eng  *sim.Engine
	name string
	rate units.BitRate

	// linkUp is the physical link state; faults flap it. Starts up.
	linkUp bool

	// Tracer, when set, receives link/stall/FLR/mailbox fault events and
	// per-batch hop spans for the trace exporter. Nil-safe: obs.Trace
	// methods accept a nil receiver.
	Tracer *obs.Trace

	// Obs, when set, receives the port's metrics: per-queue interrupt
	// counters, mailbox counters and per-hop latency histograms. Nil
	// disables metric collection (nil instruments are no-ops).
	Obs *obs.Registry

	dev *pcie.Device
	pf  *pcie.Function

	pfQueue  *Queue
	vfQueues []*Queue

	// l2 is the layer-2 switch's filter table (see l2Filter).
	l2 []l2Filter

	// Internal-switch DMA budget: VM-to-VM batches serialize over the
	// PCIe link at model.InternalSwitchRate.
	internalBusyUntil units.Time

	// Wire receive budget (the physical line itself).
	wireBusyUntil units.Time

	// Wire transmit: egress serializes at line rate toward Egress.
	wireTxBusyUntil units.Time
	// Egress receives frames leaving on the wire (the link peer). Nil
	// drops them at the PHY.
	Egress func(Batch)

	mailbox *Mailbox

	// inflight counts packets inside a scheduled-but-unfired transfer
	// completion (wire RX serialization, internal DMA, wire TX). At quiesce
	// it must be zero: every scheduled completion fires.
	inflight int64

	// Precomputed event names for the three in-flight transfer kinds, so
	// scheduling a completion never concatenates strings.
	wireEvName string
	p2vEvName  string
	txEvName   string

	// compFree pools completion objects for in-flight transfers (wire RX,
	// internal DMA, wire TX). Each carries a once-created run closure; the
	// object returns to the pool when its event fires, so steady-state
	// traffic schedules completions without allocating.
	compFree []*completion
}

// Completion kinds: what to do when an in-flight transfer's event fires.
const (
	compWireRx   = iota // wire serialization done → classify and deliver
	compInternal        // internal DMA done → deliver to destination queue
	compWireTx          // line serialization done → hand to Egress
)

// completion is one pooled in-flight transfer. The batch payload is copied
// in at schedule time and out to locals at fire time, so the object is back
// on the free list before any downstream scheduling can need it.
type completion struct {
	p    *Port
	kind int
	b    Batch
	dst  *Queue // compInternal destination
	run  func() // created once, reused across pool generations
}

func (p *Port) getComp() *completion {
	if n := len(p.compFree); n > 0 {
		c := p.compFree[n-1]
		p.compFree[n-1] = nil
		p.compFree = p.compFree[:n-1]
		return c
	}
	c := &completion{p: p}
	c.run = c.fire
	return c
}

func (c *completion) fire() {
	p, kind, b, dst := c.p, c.kind, c.b, c.dst
	c.b = Batch{}
	c.dst = nil
	p.compFree = append(p.compFree, c)
	p.inflight -= int64(b.Count)
	switch kind {
	case compWireRx:
		// A frame that matches no L2 filter is dropped by the switch.
		if q, ok := p.ClassifyVLAN(b.Dst, b.VLAN); ok {
			q.deliver(b)
		}
	case compInternal:
		dst.deliver(b)
	case compWireTx:
		if p.Egress != nil {
			p.Egress(b)
		}
	}
}

// Config describes one port's construction parameters.
type Config struct {
	Name   string
	NumVFs int // VFs to register (TotalVFs); 7 on the 82576
	Rate   units.BitRate
}

// New creates a port with its PCIe device: one PF with an SR-IOV capability
// and NumVFs (disabled) VFs. The returned device should be attached to a
// fabric by the caller.
func New(eng *sim.Engine, cfg Config) *Port {
	if cfg.Rate == 0 {
		cfg.Rate = model.PortRate
	}
	if cfg.NumVFs < 0 || cfg.NumVFs > 8 {
		panic("nic: 82576 supports at most 8 VFs per port")
	}
	p := &Port{
		eng:        eng,
		name:       cfg.Name,
		rate:       cfg.Rate,
		linkUp:     true,
		wireEvName: "nic:wire:" + cfg.Name,
		p2vEvName:  "nic:p2v:" + cfg.Name,
		txEvName:   "nic:tx:" + cfg.Name,
	}

	pf := pcie.NewFunction(cfg.Name, pcie.MakeRID(0, 0, 0), 0x8086, 0x10c9)
	pf.SetBARSize(0, 0x20000)
	pcie.AddMSIXCap(pf.Config(), 0x70, 10, 3, 0)
	pcie.AddSRIOVCap(pf.Config(), pcie.ExtCapBase, pcie.SRIOVConfig{
		TotalVFs:      cfg.NumVFs,
		FirstVFOffset: 8,
		VFStride:      1,
		VFDeviceID:    0x10ca,
	})
	p.pf = pf
	p.dev = pcie.NewDevice()
	p.dev.AddPF(pf)
	p.pfQueue = newQueue(p, pf, cfg.Name+"/pf")

	for i := 0; i < cfg.NumVFs; i++ {
		vf := p.dev.AddVF(pf, i)
		vf.SetBARSize(0, 0x4000)
		vf.SetBARSize(MSIXTableBAR, 0x1000)
		pcie.AddMSIXCap(vf.Config(), 0x70, 3, MSIXTableBAR, 0)
		pcie.AddMSICap(vf.Config(), 0x50, 0)
		pcie.AddPCIeCap(vf.Config(), 0xa0)
		q := newQueue(p, vf, fmt.Sprintf("%s/vf%d", cfg.Name, i))
		p.vfQueues = append(p.vfQueues, q)
		idx := i
		vf.OnFLR = func() { p.flrVF(idx) }
	}

	p.mailbox = newMailbox(p)

	// React to SR-IOV control writes on the PF: VF Enable materializes the
	// VFs on the bus (targeted config access starts responding).
	pf.OnConfigWrite = func(off, size int, val uint32) {
		p.dev.SetVFsPresent(pf, p.enabledVFs())
	}
	return p
}

// enabledVFs reports how many VFs the SR-IOV capability currently enables.
func (p *Port) enabledVFs() int {
	cap, ok := pcie.SRIOVCapAt(p.pf.Config())
	if !ok || !cap.VFEnabled() {
		return 0
	}
	n := cap.NumVFs()
	if n > len(p.vfQueues) {
		n = len(p.vfQueues)
	}
	return n
}

// Name reports the port name.
func (p *Port) Name() string { return p.name }

// SetLink forces the physical link state (cable pull / injected flap).
// While down, wire traffic in both directions is lost; the STATUS register
// reflects the state so drivers and health monitors can observe it.
func (p *Port) SetLink(up bool) {
	if p.linkUp == up {
		return
	}
	p.linkUp = up
	p.Tracer.Emitf(p.eng.Now(), "nic", "link", "%s up=%v", p.name, up)
}

// LinkUp reports the physical link state.
func (p *Port) LinkUp() bool { return p.linkUp }

// flrVF is the device model's response to VF i's Function-Level Reset: its
// queue's hardware state is wiped and any in-flight mailbox messages for
// the function die with it.
func (p *Port) flrVF(i int) {
	q := p.vfQueues[i]
	q.ResetHW()
	p.mailbox.clearVF(i)
	p.Tracer.Emitf(p.eng.Now(), "nic", "flr", "%s", q.name)
}

// ResetDevice is a global device reset: every queue (PF and VF) loses its
// hardware state and every in-flight mailbox message is destroyed. The PF
// driver is expected to have broadcast MsgDeviceReset beforehand (§4.2).
func (p *Port) ResetDevice() {
	p.pfQueue.ResetHW()
	for _, q := range p.vfQueues {
		q.ResetHW()
	}
	p.mailbox.clearAll()
	p.Tracer.Emitf(p.eng.Now(), "nic", "device-reset", "%s", p.name)
}

// Device returns the port's PCIe device for fabric attachment.
func (p *Port) Device() *pcie.Device { return p.dev }

// PF returns the physical function.
func (p *Port) PF() *pcie.Function { return p.pf }

// PFQueue returns the PF's own queue (dom0/native traffic).
func (p *Port) PFQueue() *Queue { return p.pfQueue }

// VFQueue returns VF i's queue.
func (p *Port) VFQueue(i int) *Queue { return p.vfQueues[i] }

// NumVFs reports the number of VF queues.
func (p *Port) NumVFs() int { return len(p.vfQueues) }

// Mailbox returns the PF↔VF mailbox.
func (p *Port) Mailbox() *Mailbox { return p.mailbox }

// l2Filter is one layer-2 switch filter: destination MAC plus VLAN tag,
// and the queue it steers to ("The layer 2 switching classifies incoming
// packets, based on MAC and VLAN addresses", §4.1). Like the 82576's
// receive-address registers, the filters are a short table matched
// exactly, entry by entry; a port holds one per function plus its VLANs.
type l2Filter struct {
	mac  MAC
	vlan uint16
	q    *Queue
}

// SetMAC programs the L2 switch: untagged frames to mac go to q. The PF
// driver owns this table (§4.1: "The PF driver is also responsible for
// configuring layer 2 switching").
func (p *Port) SetMAC(mac MAC, q *Queue) { p.SetMACVLAN(mac, 0, q) }

// SetMACVLAN programs a (MAC, VLAN) filter, replacing any existing one.
func (p *Port) SetMACVLAN(mac MAC, vlan uint16, q *Queue) {
	if i := p.filter(mac, vlan); i >= 0 {
		p.l2[i].q = q
		return
	}
	p.l2 = append(p.l2, l2Filter{mac: mac, vlan: vlan, q: q})
}

// ClearMAC removes the untagged filter for mac.
func (p *Port) ClearMAC(mac MAC) { p.ClearMACVLAN(mac, 0) }

// ClearMACVLAN removes a (MAC, VLAN) filter.
func (p *Port) ClearMACVLAN(mac MAC, vlan uint16) {
	if i := p.filter(mac, vlan); i >= 0 {
		p.l2 = slices.Delete(p.l2, i, i+1)
	}
}

// filter returns the index of the (MAC, VLAN) filter, or -1.
func (p *Port) filter(mac MAC, vlan uint16) int {
	for i := range p.l2 {
		if f := &p.l2[i]; f.mac == mac && f.vlan == vlan {
			return i
		}
	}
	return -1
}

// ClassifyVLAN reports the queue for a (MAC, VLAN) pair.
func (p *Port) ClassifyVLAN(mac MAC, vlan uint16) (*Queue, bool) {
	if i := p.filter(mac, vlan); i >= 0 {
		return p.l2[i].q, true
	}
	return nil, false
}

// ReceiveFromWire delivers a batch arriving on the physical line: the wire
// serializes at line rate; frames to unknown MACs are dropped (no
// promiscuous default).
func (p *Port) ReceiveFromWire(b Batch) {
	if !p.linkUp {
		return
	}
	ttime := units.TransferTime(b.Bytes, p.rate)
	now := p.eng.Now()
	if b.SentAt == 0 {
		b.SentAt = now
	}
	start := now
	if p.wireBusyUntil > start {
		start = p.wireBusyUntil
	}
	// If the line is backlogged by more than a coalescing interval the
	// sender is overdriving it; excess is lost on the sending side. Model:
	// batches arriving while the wire is >1 ms behind are dropped.
	if start.Sub(now) > units.Millisecond {
		return
	}
	p.wireBusyUntil = start.Add(ttime)
	p.inflight += int64(b.Count)
	c := p.getComp()
	c.kind, c.b = compWireRx, b
	p.eng.At(p.wireBusyUntil, p.wireEvName, c.run)
}

// InFlightPackets reports packets inside scheduled transfer completions —
// provably in flight, not lost; zero once the engine quiesces.
func (p *Port) InFlightPackets() int64 { return p.inflight }

// QuiesceAt reports when the port's last scheduled transfer completes —
// the instant after which InFlightPackets can reach zero with no new
// work. A sender overdriving a path (inter-VM DMA, the wire) can push
// this well past the present.
func (p *Port) QuiesceAt() units.Time {
	t := p.wireBusyUntil
	if p.internalBusyUntil > t {
		t = p.internalBusyUntil
	}
	if p.wireTxBusyUntil > t {
		t = p.wireTxBusyUntil
	}
	return t
}

// SendInternal transmits a batch from a source queue to a destination on
// the same port. If the destination MAC is local the NIC switches it
// internally ("Packets of inter-VM communication in SR-IOV are internally
// switched in NIC, without going through the physical line", §6.3),
// serializing both DMA crossings over the PCIe budget. It reports the time
// the transfer completes, or ok=false if the destination is unknown.
func (p *Port) SendInternal(src *Queue, b Batch) (units.Time, bool) {
	dst, ok := p.ClassifyVLAN(b.Dst, b.VLAN)
	if !ok || dst == src {
		return 0, false
	}
	now := p.eng.Now()
	if b.SentAt == 0 {
		b.SentAt = now
	}
	start := now
	if p.internalBusyUntil > start {
		start = p.internalBusyUntil
	}
	// Each transfer pays a descriptor/doorbell setup round trip on top of
	// the data movement — why small inter-VM messages fall short of the
	// DMA ceiling (Fig. 13).
	ttime := units.TransferTime(b.Bytes, model.InternalSwitchRate) + model.InternalDMASetup
	p.internalBusyUntil = start.Add(ttime)
	done := p.internalBusyUntil
	p.inflight += int64(b.Count)
	c := p.getComp()
	c.kind, c.b, c.dst = compInternal, b, dst
	p.eng.At(done, p.p2vEvName, c.run)
	return done, true
}

// TransmitToWire sends a batch out of the port: frames serialize on the
// physical line at the port rate and arrive at the link peer (Egress) after
// the transfer time. Like the receive side, a sender overdriving the line
// by more than a coalescing interval loses the excess.
func (p *Port) TransmitToWire(b Batch) bool {
	if !p.linkUp {
		return false
	}
	now := p.eng.Now()
	if b.SentAt == 0 {
		b.SentAt = now
	}
	start := now
	if p.wireTxBusyUntil > start {
		start = p.wireTxBusyUntil
	}
	if start.Sub(now) > units.Millisecond {
		return false
	}
	ttime := units.TransferTime(b.Bytes, p.rate)
	p.wireTxBusyUntil = start.Add(ttime)
	p.inflight += int64(b.Count)
	c := p.getComp()
	c.kind, c.b = compWireTx, b
	p.eng.At(p.wireTxBusyUntil, p.txEvName, c.run)
	return true
}

// TxBacklog reports how far behind the transmit line is.
func (p *Port) TxBacklog() units.Duration {
	now := p.eng.Now()
	if p.wireTxBusyUntil <= now {
		return 0
	}
	return p.wireTxBusyUntil.Sub(now)
}

// InternalBacklog reports how far behind the internal DMA engine is — the
// backpressure an inter-VM sender sees.
func (p *Port) InternalBacklog() units.Duration {
	now := p.eng.Now()
	if p.internalBusyUntil <= now {
		return 0
	}
	return p.internalBusyUntil.Sub(now)
}
