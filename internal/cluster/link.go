package cluster

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/units"
)

// LinkConfig shapes one fabric link: a ToR egress (downlink) toward a host
// NIC port, or a Clos edge or trunk link. The ToR's uplink direction needs
// no queue of its own — the host NIC already serializes its transmit side
// at the port rate — so only the one-hop latency is charged there.
type LinkConfig struct {
	Rate     units.BitRate  // drain rate (default 1 GbE, the port class)
	Latency  units.Duration // one-way propagation + switching (default 5 µs)
	QueueCap units.Size     // egress buffer bound (default 256 KiB)
}

func (lc *LinkConfig) fill() {
	if lc.Rate == 0 {
		lc.Rate = model.ClusterLinkRate
	}
	if lc.Latency == 0 {
		lc.Latency = model.ClusterLinkLatency
	}
	if lc.QueueCap == 0 {
		lc.QueueCap = model.ClusterQueueCap
	}
}

// validate rejects negative fields (a negative latency would schedule
// arrivals in the past); zero fields take the defaults.
func (lc LinkConfig) validate() error {
	if lc.Rate < 0 || lc.Latency < 0 || lc.QueueCap < 0 {
		return fmt.Errorf("negative link rate, latency or queue cap in %+v", lc)
	}
	return nil
}

// link is one directed fabric link, the queue discipline both the ToR and
// the Clos run: a bounded tail-drop FIFO that serializes each batch at
// effRate behind the line's backlog and lands it Latency after its last
// bit. Instruments belong to the owning fabric.
type link struct {
	cfg    LinkConfig
	index  int    // position in the owning fabric's link table (ToR: switch port)
	evName string // arrival event name, built once
	up     bool
	tier   *tierStats // Clos tier rollup; nil on the ToR

	qBytes    units.Size // bytes queued or in flight on the line
	busyUntil units.Time // when the line finishes its current backlog

	// fluid occupancy from the Clos fluid model's recompute (zero on the ToR)
	fluidRate  float64 // bps allocated to fluid flows through this link
	fluidFlows int
	demandBps  float64 // total offered demand of active flows (for hysteresis)
}

func newLink(index int, evName string, cfg LinkConfig) *link {
	cfg.fill()
	return &link{cfg: cfg, index: index, evName: evName, up: true}
}

// effRate is the drain rate the packet path sees: capacity minus the fluid
// reservations, floored at 1/16th of line rate so a transiently
// over-reserved link degrades instead of stalling. With no fluid flows it
// is exactly Rate.
func (l *link) effRate() units.BitRate {
	eff := float64(l.cfg.Rate) - l.fluidRate
	if floor := float64(l.cfg.Rate) / 16; eff < floor {
		eff = floor
	}
	return units.BitRate(eff)
}

// enqueue admits a batch's bytes at now and returns its serialization
// time; it lands at arrival(). A batch that does not fit the buffer is
// tail-dropped whole: ok=false, and nothing changes.
func (l *link) enqueue(now units.Time, bytes units.Size) (tx units.Duration, ok bool) {
	if l.qBytes+bytes > l.cfg.QueueCap {
		return 0, false
	}
	l.qBytes += bytes
	start := l.busyUntil
	if start < now {
		start = now
	}
	tx = units.TransferTime(bytes, l.effRate())
	l.busyUntil = start.Add(tx)
	return tx, true
}

// arrival is when the most recently enqueued batch reaches the far end.
func (l *link) arrival() units.Time { return l.busyUntil.Add(l.cfg.Latency) }

// queuedBytes sums the backlog across links.
func queuedBytes(links []*link) units.Size {
	var total units.Size
	for _, l := range links {
		total += l.qBytes
	}
	return total
}

// flight is a pooled in-flight frame batch: one event per hop, no
// allocation per batch. path is a Clos route or a ToR's one egress link.
type flight struct {
	b    nic.Batch  // the frames; ToR batches also carry Src/Dst/SentAt
	enq  units.Time // ToR: when the batch entered the egress queue (sojourn)
	path []*link
	hop  int

	f   *ClosFlow // Clos: owning flow and its sequence number
	seq int64

	fire func()
}

// flightPool recycles one fabric's in-flight records. A record's fire func
// is bound once: it releases the batch's bytes from the link it crossed
// and hands the record to the fabric's land func.
type flightPool struct {
	free []*flight
	land func(r *flight, l *link)
}

func (p *flightPool) get() *flight {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	r := &flight{}
	r.fire = func() {
		l := r.path[r.hop]
		l.qBytes -= r.b.Bytes
		p.land(r, l)
	}
	return r
}

func (p *flightPool) put(r *flight) {
	r.f, r.path = nil, nil
	p.free = append(p.free, r)
}
