// Leaf–spine Clos fabric.
//
// Where cluster.Cluster models one ToR switch with full per-host testbeds,
// Clos scales the fabric axis: hosts hang off leaf switches, leaves connect
// to every spine, and cross-leaf traffic is spread over the spines by
// per-flow ECMP. Hosts here are lightweight traffic endpoints — per-host
// device fidelity (mailboxes, interrupts, VM exits) is the single-host
// figures' domain; this layer answers fabric questions (incast,
// oversubscription, scale) where thousands of full testbeds would drown
// the event queue without adding information.
//
// Every link is the same bounded tail-drop, store-and-forward FIFO the ToR
// uses (link.go). A flow traverses at most four links: host→leaf,
// leaf→spine, spine→leaf, leaf→host. Intra-leaf flows skip the trunk tier;
// same-host flows never touch the fabric.
//
// ECMP uses rendezvous (highest-random-weight) hashing of the flow 5-tuple
// over the live spines: flow placement is stable, independent of arrival
// order, and a link failure remaps only the flows that crossed the dead
// trunk. Intra-flow ordering is enforced structurally — a flow's batches
// share one path and FIFO links, and the final-hop arrival is clamped to be
// strictly after the previous batch's arrival so a mid-flight reroute can
// never reorder — and audited with per-flow sequence numbers.
//
// The flow-level fast-path (see fastpath.go) lets steady-state flows skip
// per-packet events entirely and advance as fluid max-min rate allocations.
package cluster

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Topology describes a leaf–spine Clos fabric: Leafs leaf switches each
// attaching HostsPerLeaf hosts over HostLink edges, and Spines spine
// switches reached from every leaf over TrunkLink uplinks.
type Topology struct {
	Leafs        int
	Spines       int
	HostsPerLeaf int
	HostLink     LinkConfig // host↔leaf edge links (default: ToR link class)
	TrunkLink    LinkConfig // leaf↔spine trunks (default: edge rate — 1:1 per spine)
}

func (t *Topology) fill() {
	if t.Leafs == 0 {
		t.Leafs = 2
	}
	if t.Spines == 0 {
		t.Spines = 2
	}
	if t.HostsPerLeaf == 0 {
		t.HostsPerLeaf = 2
	}
	t.HostLink.fill()
	t.TrunkLink.fill()
}

// Validate rejects degenerate shapes before any wiring happens.
func (t Topology) Validate() error {
	if t.Leafs < 1 || t.Spines < 1 || t.HostsPerLeaf < 1 {
		return fmt.Errorf("clos: topology needs at least 1 leaf/spine/host, got %d/%d/%d",
			t.Leafs, t.Spines, t.HostsPerLeaf)
	}
	if err := t.HostLink.validate(); err != nil {
		return fmt.Errorf("clos: host link: %w", err)
	}
	if err := t.TrunkLink.validate(); err != nil {
		return fmt.Errorf("clos: trunk link: %w", err)
	}
	return nil
}

// Hosts reports the total host count.
func (t Topology) Hosts() int { return t.Leafs * t.HostsPerLeaf }

// OversubscribedTopology builds a topology whose trunks are sized for the
// requested oversubscription ratio given default edge links.
func OversubscribedTopology(leafs, spines, hostsPerLeaf int, ratio float64) Topology {
	t := Topology{Leafs: leafs, Spines: spines, HostsPerLeaf: hostsPerLeaf}
	t.fill()
	if ratio > 0 {
		trunk := float64(t.HostsPerLeaf) * float64(t.HostLink.Rate) / (float64(t.Spines) * ratio)
		t.TrunkLink.Rate = units.BitRate(trunk)
	}
	return t
}

// FastpathMode selects how the flow-level fast-path engages.
type FastpathMode int

const (
	// FastpathAuto starts flows fluid and demotes/promotes them against the
	// packet model based on congestion — the production setting.
	FastpathAuto FastpathMode = iota
	// FastpathOn forces every live-path flow fluid, congested or not.
	FastpathOn
	// FastpathOff disables the fast-path: every flow runs packet-level.
	FastpathOff
)

var fastpathNames = [...]string{FastpathAuto: "auto", FastpathOn: "on", FastpathOff: "off"}

// ParseFastpathMode parses the -fastpath flag values ("" means auto).
func ParseFastpathMode(s string) (FastpathMode, error) {
	for m, name := range fastpathNames {
		if s == name || s == "" {
			return FastpathMode(m), nil
		}
	}
	return FastpathAuto, fmt.Errorf("unknown fastpath mode %q (want auto|on|off)", s)
}

func (m FastpathMode) String() string { return fastpathNames[m] }

// ClosConfig configures a Clos fabric instance.
type ClosConfig struct {
	Topo Topology
	Seed uint64
	Obs  *obs.Registry
	// Arena shares pooled event storage with the owning worker (the PR 5
	// arena-per-worker seam); nil builds a private arena.
	Arena *sim.Arena
	// Eng attaches the fabric to an existing engine instead of creating one.
	Eng *sim.Engine

	Fastpath FastpathMode
}

func (cfg *ClosConfig) fill() {
	cfg.Topo.fill()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
}

// batchFrames is the frames-per-batch emission granularity of every flow.
const batchFrames = 4

// Clos tier indices for the per-tier metric rollups.
const (
	tierEdgeUp = iota // host → leaf
	tierTrunkUp
	tierTrunkDown
	tierEdgeDown // leaf → host
	tierCount
)

var tierNames = [tierCount]string{"edge_up", "trunk_up", "trunk_down", "edge_down"}

// tierStats aggregates link metrics across one tier of the fabric. Per-link
// counters are deliberately absent: a 1024-host fabric has thousands of
// links, and the tier rollups answer the capacity questions.
type tierStats struct {
	txPackets  *obs.Counter
	txBytes    *obs.Counter
	dropped    *obs.Counter
	fluidBytes *obs.Counter
	peakQueue  *obs.Gauge // KiB high-water mark across the tier's queues
}

// Clos is a leaf–spine fabric simulation: topology, flows, and the fluid
// fast-path model. Like every simulation object it is single-goroutine,
// owned by the engine that drives it.
type Clos struct {
	Eng *sim.Engine
	Obs *obs.Registry

	cfg  ClosConfig
	topo Topology

	hostUp  []*link   // [host] host→leaf
	hostDn  []*link   // [host] leaf→host
	trunkUp [][]*link // [leaf][spine]
	trunkDn [][]*link // [spine][leaf]
	links   []*link   // registration order

	tiers [tierCount]tierStats

	flows  []*ClosFlow
	nextID int

	fm *fluidModel

	pool     flightPool
	inFlight int64

	reorderParks  *obs.Counter // deliveries resequenced after a reroute transient
	reorderClamps *obs.Counter // final-hop arrivals clamped to preserve order
	seamStraggler *obs.Counter // packet deliveries below a fluid bulk-advance
	reroutes      *obs.Counter
	linkDownDrops *obs.Counter
}

// NewClos wires a fabric from the config. The registry may be nil.
func NewClos(cfg ClosConfig) (*Clos, error) {
	cfg.fill()
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	eng := cfg.Eng
	if eng == nil {
		arena := cfg.Arena
		if arena == nil {
			arena = sim.NewArena()
		}
		eng = sim.NewEngineArena(cfg.Seed, arena)
	}
	c := &Clos{
		Eng:  eng,
		Obs:  cfg.Obs,
		cfg:  cfg,
		topo: cfg.Topo,

		reorderParks:  cfg.Obs.Counter("cluster.clos.reorder_parks"),
		reorderClamps: cfg.Obs.Counter("cluster.clos.reorder_clamps"),
		seamStraggler: cfg.Obs.Counter("cluster.clos.fastpath.seam_stragglers"),
		reroutes:      cfg.Obs.Counter("cluster.clos.reroutes"),
		linkDownDrops: cfg.Obs.Counter("cluster.clos.linkdown_drops"),
	}
	c.pool.land = c.arrive
	for t := 0; t < tierCount; t++ {
		prefix := "cluster.clos.tier." + tierNames[t]
		c.tiers[t] = tierStats{
			txPackets:  cfg.Obs.Counter(prefix + ".tx_pkts"),
			txBytes:    cfg.Obs.Counter(prefix + ".tx_bytes"),
			dropped:    cfg.Obs.Counter(prefix + ".dropped_pkts"),
			fluidBytes: cfg.Obs.Counter(prefix + ".fluid_bytes"),
			peakQueue:  cfg.Obs.Gauge(prefix + ".peak_queue_kib"),
		}
	}

	topo := c.topo
	hosts := topo.Hosts()
	c.hostUp = make([]*link, hosts)
	c.hostDn = make([]*link, hosts)
	for h := 0; h < hosts; h++ {
		c.hostUp[h] = c.newLink(fmt.Sprintf("eup.h%d", h), tierEdgeUp, topo.HostLink)
		c.hostDn[h] = c.newLink(fmt.Sprintf("edn.h%d", h), tierEdgeDown, topo.HostLink)
	}
	c.trunkUp = make([][]*link, topo.Leafs)
	for l := 0; l < topo.Leafs; l++ {
		c.trunkUp[l] = make([]*link, topo.Spines)
		for s := 0; s < topo.Spines; s++ {
			c.trunkUp[l][s] = c.newLink(fmt.Sprintf("tup.l%d.s%d", l, s), tierTrunkUp, topo.TrunkLink)
		}
	}
	c.trunkDn = make([][]*link, topo.Spines)
	for s := 0; s < topo.Spines; s++ {
		c.trunkDn[s] = make([]*link, topo.Leafs)
		for l := 0; l < topo.Leafs; l++ {
			c.trunkDn[s][l] = c.newLink(fmt.Sprintf("tdn.s%d.l%d", s, l), tierTrunkDown, topo.TrunkLink)
		}
	}
	c.fm = newFluidModel(c, cfg.Fastpath)
	return c, nil
}

func (c *Clos) newLink(name string, tier int, cfg LinkConfig) *link {
	l := newLink(len(c.links), "clos:"+name, cfg)
	l.tier = &c.tiers[tier]
	c.links = append(c.links, l)
	return l
}

// Flows reports every flow ever started, in creation order.
func (c *Clos) Flows() []*ClosFlow { return c.flows }

// InFlightPackets reports packets currently traversing the packet path.
func (c *Clos) InFlightPackets() int64 { return c.inFlight }

// QueuedBytes sums the backlog across every fabric queue.
func (c *Clos) QueuedBytes() units.Size { return queuedBytes(c.links) }

// ReorderViolations counts batches currently held out of order by the
// receiver-side resequencers. After a drain it must be zero: every parked
// batch flushes once its blocking gap resolves, so a nonzero value means
// in-order delivery broke.
func (c *Clos) ReorderViolations() int64 {
	var n int64
	for _, f := range c.flows {
		n += int64(len(f.parked))
	}
	return n
}

// Demotions and Promotions report fast-path transitions so far.
func (c *Clos) Demotions() int64  { return c.fm.demotions.Value() }
func (c *Clos) Promotions() int64 { return c.fm.promotions.Value() }

func (c *Clos) leafOf(host int) int { return host / c.topo.HostsPerLeaf }

// splitmix64 is the SplitMix64 finalizer: the stable, seed-salted hash under
// both the flow key and the rendezvous spine scores.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *Clos) flowKey(srcHost, srcVM, dstHost, dstVM int) uint64 {
	k := splitmix64(c.cfg.Seed ^ uint64(srcHost)<<32 ^ uint64(srcVM))
	return splitmix64(k ^ uint64(dstHost)<<32 ^ uint64(dstVM))
}

// pickSpine rendezvous-hashes the flow over spines with a live trunk pair
// for this leaf crossing. With no live spine it falls back to the best
// scoring dead one (the flow blackholes there, visibly, until repair).
func (c *Clos) pickSpine(key uint64, srcLeaf, dstLeaf int) int {
	best, bestDead := -1, -1
	var bestScore, bestDeadScore uint64
	for s := 0; s < c.topo.Spines; s++ {
		score := splitmix64(key ^ (uint64(s) + 0x632be59bd9b4e019))
		if c.trunkUp[srcLeaf][s].up && c.trunkDn[s][dstLeaf].up {
			if best < 0 || score > bestScore {
				best, bestScore = s, score
			}
		} else if bestDead < 0 || score > bestDeadScore {
			bestDead, bestDeadScore = s, score
		}
	}
	if best >= 0 {
		return best
	}
	return bestDead
}

// route computes (or recomputes) the flow's path. Batches already in flight
// keep the path slice they captured at injection, so a reroute can never
// teleport a queued batch.
func (c *Clos) route(f *ClosFlow) {
	if f.SrcHost == f.DstHost {
		f.path = nil
		f.spine = -1
	} else if sl, dl := c.leafOf(f.SrcHost), c.leafOf(f.DstHost); sl == dl {
		f.path = []*link{c.hostUp[f.SrcHost], c.hostDn[f.DstHost]}
		f.spine = -1
	} else {
		sp := c.pickSpine(f.key, sl, dl)
		f.path = []*link{c.hostUp[f.SrcHost], c.trunkUp[sl][sp], c.trunkDn[sp][dl], c.hostDn[f.DstHost]}
		f.spine = sp
	}
	f.pathIdx = f.pathIdx[:0]
	for _, l := range f.path {
		f.pathIdx = append(f.pathIdx, l.index)
	}
}

func (f *ClosFlow) pathUp() bool {
	for _, l := range f.path {
		if !l.up {
			return false
		}
	}
	return true
}

// SetTrunk flips a leaf↔spine trunk pair up or down. Affected flows are
// rerouted (rendezvous hashing moves only the flows that crossed the dead
// trunk) and the fluid allocations recompute.
func (c *Clos) SetTrunk(leaf, spine int, up bool) {
	if leaf < 0 || leaf >= c.topo.Leafs || spine < 0 || spine >= c.topo.Spines {
		return
	}
	if c.trunkUp[leaf][spine].up == up && c.trunkDn[spine][leaf].up == up {
		return
	}
	c.trunkUp[leaf][spine].up = up
	c.trunkDn[spine][leaf].up = up
	for _, f := range c.flows {
		if f.stopped || f.done || f.spine < 0 {
			continue
		}
		old := f.spine
		c.route(f)
		if f.spine != old {
			c.reroutes.Inc()
		}
	}
	c.fm.dirty()
}

// send enqueues the record on its current hop's link; tail-drop if the
// buffer is full, black-hole drop if the link is down.
func (c *Clos) send(r *flight) {
	l := r.path[r.hop]
	if !l.up {
		c.linkDownDrops.Add(int64(r.b.Count))
		c.drop(r, l)
		return
	}
	if _, ok := l.enqueue(c.Eng.Now(), r.b.Bytes); !ok {
		c.drop(r, l)
		return
	}
	l.tier.peakQueue.SetMax(float64(l.qBytes) / float64(units.KiB))
	at := l.arrival()
	if r.hop == len(r.path)-1 {
		// Final hop: arrivals within a flow must be strictly monotonic even
		// across a reroute whose new path is faster than the old one.
		if at <= r.f.lastArrival {
			at = r.f.lastArrival + 1
			c.reorderClamps.Inc()
		}
		r.f.lastArrival = at
	}
	c.Eng.At(at, l.evName, r.fire)
	if c.fm.mode == FastpathAuto && l.fluidFlows > 0 && l.qBytes*4 > l.cfg.QueueCap*3 {
		c.fm.queuePressure(l)
	}
}

func (c *Clos) drop(r *flight, l *link) {
	l.tier.dropped.Add(int64(r.b.Count))
	r.f.droppedPkts += int64(r.b.Count)
	c.inFlight -= int64(r.b.Count)
	r.f.resolve(r.seq, 0, 0, false, c.Eng.Now())
	c.pool.put(r)
}

// arrive lands a record that finished serializing (plus latency) on link
// l: either forward it to the next hop or deliver it.
func (c *Clos) arrive(r *flight, l *link) {
	l.tier.txPackets.Add(int64(r.b.Count))
	l.tier.txBytes.Add(int64(r.b.Bytes))
	r.hop++
	if r.hop < len(r.path) {
		c.send(r)
		return
	}
	c.inFlight -= int64(r.b.Count)
	r.f.resolve(r.seq, r.b.Count, r.b.Bytes, true, c.Eng.Now())
	c.pool.put(r)
}

// parkedSeq is one out-of-order terminal event (delivery or drop) held by a
// flow's receiver-side resequencer until the seq gap below it resolves.
type parkedSeq struct {
	seq       int64
	count     int
	bytes     units.Size
	delivered bool
}

// resolve retires one batch sequence number. In-order deliveries credit
// immediately; out-of-order ones — possible only across a reroute, since a
// stable path is FIFO end to end — park until every lower seq has resolved,
// which is exactly what a receiver's resequencing buffer does. Drops resolve
// their seq too (the receiver is omniscient here), so a loss never wedges
// the resequencer.
func (f *ClosFlow) resolve(seq int64, count int, bytes units.Size, delivered bool, now units.Time) {
	if seq <= f.resolvedSeq {
		// Below a fluid bulk-advance: the ledger already moved past this seq
		// at a mode seam. Credit directly; ordering across the seam is not a
		// fabric property.
		if delivered {
			f.credit(count, bytes, now)
			f.c.seamStraggler.Inc()
		}
		return
	}
	if seq == f.resolvedSeq+1 {
		f.resolvedSeq = seq
		if delivered {
			f.credit(count, bytes, now)
		}
		f.flushParked(now)
		return
	}
	if delivered {
		// A drop resolving early (it dies upstream while older batches are
		// still in flight) is routine bookkeeping; a *delivery* parking
		// means the fabric genuinely let a batch overtake — only possible
		// across a reroute, and worth surfacing.
		f.c.reorderParks.Inc()
	}
	p := parkedSeq{seq: seq, count: count, bytes: bytes, delivered: delivered}
	i := len(f.parked)
	f.parked = append(f.parked, p)
	for i > 0 && f.parked[i-1].seq > p.seq {
		f.parked[i] = f.parked[i-1]
		i--
	}
	f.parked[i] = p
}

// flushParked releases every parked batch whose seq gap has closed.
func (f *ClosFlow) flushParked(now units.Time) {
	for len(f.parked) > 0 && f.parked[0].seq <= f.resolvedSeq+1 {
		p := f.parked[0]
		f.parked = f.parked[1:]
		if p.seq > f.resolvedSeq {
			f.resolvedSeq = p.seq
		}
		if p.delivered {
			f.credit(p.count, p.bytes, now)
		}
	}
}

// ClosFlow is one unidirectional VM→VM flow: an open-loop CBR source
// (optionally bounded to TotalBytes) emitting fixed-size frame batches at
// its demand rate, either as per-hop packet events or as fluid settles.
type ClosFlow struct {
	c  *Clos
	ID int

	SrcHost, DstHost int

	key        uint64
	demand     units.BitRate
	totalBytes units.Size // 0 = unbounded
	batchCount int
	batchBytes units.Size
	period     units.Duration // emission period at the demand rate
	startAt    units.Time

	path    []*link
	pathIdx []int // link indices, for the max-min allocator
	spine   int

	fluid   bool
	alloc   float64 // bps granted by the fluid model
	stopped bool
	done    bool // finite flow fully emitted

	nextEmit units.Time
	emitH    sim.Handle
	emitFn   func()
	doneH    sim.Handle
	doneFn   func()

	// ledger — audited for exact packet conservation
	seq            int64
	resolvedSeq    int64 // all seqs <= this have delivered or dropped
	parked         []parkedSeq
	injectedPkts   int64
	deliveredPkts  int64
	droppedPkts    int64
	emittedBytes   units.Size
	deliveredBytes units.Size
	lastArrival    units.Time
	lastDeliveryAt units.Time

	// fast-path hysteresis state
	calmSince units.Time
	hasCalm   bool
}

// StartFlow starts an unbounded CBR flow between two VMs.
func (c *Clos) StartFlow(srcHost, srcVM, dstHost, dstVM int, rate units.BitRate) *ClosFlow {
	return c.startFlow(srcHost, srcVM, dstHost, dstVM, rate, 0)
}

// StartTransfer starts a finite transfer of total bytes at the given
// offered rate; it completes when the last byte is delivered.
func (c *Clos) StartTransfer(srcHost, srcVM, dstHost, dstVM int, rate units.BitRate, total units.Size) *ClosFlow {
	return c.startFlow(srcHost, srcVM, dstHost, dstVM, rate, total)
}

func (c *Clos) startFlow(srcHost, srcVM, dstHost, dstVM int, rate units.BitRate, total units.Size) *ClosFlow {
	hosts := c.topo.Hosts()
	if srcHost < 0 || srcHost >= hosts || dstHost < 0 || dstHost >= hosts {
		panic(fmt.Sprintf("clos: flow endpoints %d→%d outside %d hosts", srcHost, dstHost, hosts))
	}
	if rate <= 0 {
		rate = model.LineRateUDP
	}
	f := &ClosFlow{
		c:  c,
		ID: c.nextID,

		SrcHost: srcHost, DstHost: dstHost,

		key:        c.flowKey(srcHost, srcVM, dstHost, dstVM),
		demand:     rate,
		totalBytes: total,
		batchCount: batchFrames,
		batchBytes: batchFrames * model.FrameSize,
		startAt:    c.Eng.Now(),
	}
	f.period = units.TransferTime(f.batchBytes, rate)
	if f.period <= 0 {
		f.period = 1
	}
	// The source fills its first batch over one period before emitting.
	f.nextEmit = f.startAt.Add(f.period)
	f.emitFn = func() { f.emit() }
	f.doneFn = func() { c.fm.settle(f, c.Eng.Now()) }
	c.nextID++
	c.route(f)
	c.flows = append(c.flows, f)
	c.fm.admit(f)
	return f
}

// StartRing starts vmsPerHost flows per host in a host ring — VM v on host
// h sends to VM v on host h+1 — at the given per-flow rate. VM start times
// are staggered across one emission period so well-behaved sources do not
// burst in lockstep; on an uncongested ring the stagger keeps every queue
// empty, which the fastpath≡packet differential gates rely on. Flows are
// created by scheduled events, so the returned slice fills in as the
// engine runs.
func (c *Clos) StartRing(vmsPerHost int, rate units.BitRate) []*ClosFlow {
	hosts := c.topo.Hosts()
	flows := make([]*ClosFlow, hosts*vmsPerHost)
	period := units.TransferTime(batchFrames*model.FrameSize, rate)
	now := c.Eng.Now()
	for h := 0; h < hosts; h++ {
		for v := 0; v < vmsPerHost; v++ {
			i := h*vmsPerHost + v
			src, dst, vm := h, (h+1)%hosts, v
			at := now.Add(units.Duration(v) * period / units.Duration(vmsPerHost))
			c.Eng.At(at, "clos:ring-start", func() {
				flows[i] = c.StartFlow(src, vm, dst, vm, rate)
			})
		}
	}
	return flows
}

// nextBatch sizes the next emission: full batches until the (possibly
// partial) tail of a finite transfer. count==0 means fully emitted.
func (f *ClosFlow) nextBatch() (count int, bytes units.Size) {
	if f.totalBytes > 0 {
		rem := f.totalBytes - f.emittedBytes
		if rem <= 0 {
			return 0, 0
		}
		if rem < f.batchBytes {
			n := int((rem + model.FrameSize - 1) / model.FrameSize)
			return n, rem
		}
	}
	return f.batchCount, f.batchBytes
}

// emit is the packet-mode source tick: inject one batch, schedule the next.
func (f *ClosFlow) emit() {
	if f.stopped || f.fluid {
		return
	}
	count, bytes := f.nextBatch()
	if count == 0 {
		f.finish()
		return
	}
	f.inject(count, bytes)
	f.nextEmit = f.nextEmit.Add(f.period)
	if f.totalBytes > 0 && f.emittedBytes >= f.totalBytes {
		f.finish()
		return
	}
	f.emitH = f.c.Eng.At(f.nextEmit, "clos:emit", f.emitFn)
}

func (f *ClosFlow) inject(count int, bytes units.Size) {
	c := f.c
	f.seq++
	f.injectedPkts += int64(count)
	f.emittedBytes += bytes
	now := c.Eng.Now()
	if len(f.path) == 0 {
		// Same-host traffic never touches the fabric.
		f.resolve(f.seq, count, bytes, true, now)
		return
	}
	r := c.pool.get()
	r.f, r.path, r.hop, r.seq = f, f.path, 0, f.seq
	r.b = nic.Batch{Count: count, Bytes: bytes}
	c.inFlight += int64(count)
	c.send(r)
}

func (f *ClosFlow) credit(count int, bytes units.Size, at units.Time) {
	f.deliveredPkts += int64(count)
	f.deliveredBytes += bytes
	if at > f.lastDeliveryAt {
		f.lastDeliveryAt = at
	}
}

// finish marks a finite flow fully emitted; its demand leaves the
// allocation problem (delivery of in-flight batches continues).
func (f *ClosFlow) finish() {
	if f.done {
		return
	}
	f.done = true
	f.c.fm.dirty()
}

// Stop halts the source. Fluid progress is settled first so the ledger
// stays exact; in-flight packet batches still deliver (drain the fabric to
// collect them).
func (f *ClosFlow) Stop() {
	if f.stopped {
		return
	}
	f.c.fm.settle(f, f.c.Eng.Now())
	f.stopped = true
	f.emitH.Cancel()
	f.doneH.Cancel()
	f.c.fm.dirty()
}

// StopAll stops every flow.
func (c *Clos) StopAll() {
	for _, f := range c.flows {
		f.Stop()
	}
}

// Injected, Delivered, Dropped and InFlight expose the conservation ledger.
func (f *ClosFlow) Injected() int64  { return f.injectedPkts }
func (f *ClosFlow) Delivered() int64 { return f.deliveredPkts }
func (f *ClosFlow) Dropped() int64   { return f.droppedPkts }
func (f *ClosFlow) InFlight() int64  { return f.injectedPkts - f.deliveredPkts - f.droppedPkts }

// DeliveredBytes reports goodput bytes received so far.
func (f *ClosFlow) DeliveredBytes() units.Size { return f.deliveredBytes }

// Completed reports whether every injected packet was delivered or dropped.
func (f *ClosFlow) Completed() bool {
	return f.done && f.InFlight() == 0
}

// FCT reports the flow completion time: last delivery minus start.
func (f *ClosFlow) FCT() units.Duration {
	if f.lastDeliveryAt <= f.startAt {
		return 0
	}
	return f.lastDeliveryAt.Sub(f.startAt)
}

// Run advances the fabric's engine by d.
func (c *Clos) Run(d units.Duration) { c.Eng.RunUntil(c.Eng.Now().Add(d)) }

// Drain runs until no packets are in flight (bounded). It reports whether
// the fabric fully drained. Fluid flows must be settled (stopped) first.
func (c *Clos) Drain(bound units.Duration) bool {
	deadline := c.Eng.Now().Add(bound)
	for c.inFlight > 0 && c.Eng.Now() < deadline {
		step := c.Eng.Now().Add(units.Millisecond)
		if step > deadline {
			step = deadline
		}
		c.Eng.RunUntil(step)
	}
	return c.inFlight == 0
}

// TierDrops sums dropped packets across all tiers.
func (c *Clos) TierDrops() int64 {
	var total int64
	for t := 0; t < tierCount; t++ {
		total += c.tiers[t].dropped.Value()
	}
	return total
}
