package cluster

import (
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// queueDepthBounds are the histogram buckets for egress queue depth. The
// obs histogram type is duration-valued, so depth is encoded as
// 1 KiB ≡ 1 µs (a 256 KiB queue spans 0–256 "µs").
func queueDepthBounds() []units.Duration {
	return []units.Duration{0,
		4 * units.Microsecond, 16 * units.Microsecond, 32 * units.Microsecond,
		64 * units.Microsecond, 96 * units.Microsecond, 128 * units.Microsecond,
		192 * units.Microsecond, 256 * units.Microsecond, 512 * units.Microsecond}
}

// encodeKiB maps a byte size onto the duration-typed histogram axis.
func encodeKiB(s units.Size) units.Duration {
	return units.Duration(s/units.KiB) * units.Microsecond
}

// port is the ToR side of one switch egress: where its link delivers, and
// the per-port instruments the Clos deliberately does without.
type port struct {
	deliver   func(nic.Batch)
	busyAccum units.Duration // cumulative transmit time (utilization)

	txPackets *obs.Counter
	txBytes   *obs.Counter
	dropped   *obs.Counter
	util      *obs.Gauge
	depth     *obs.Hist
	sojourn   *obs.Hist
}

// Switch is the shared ToR: a learning L2 switch whose forwarding database
// maps source MACs to the ingress port they were last seen on. Unknown
// destinations flood to every port but the ingress (in port order, so a
// flood's event schedule is deterministic).
//
// The data path only looks the FDB up and never iterates it, so Go's
// randomized map iteration order cannot reach the event schedule: floods
// walk the port slice, and byte-identical replay depends on nothing else.
type Switch struct {
	eng   *sim.Engine
	links []*link // egress links, by port index
	ports []port
	pool  flightPool
	fdb   map[nic.MAC]int

	learns *obs.Counter
	floods *obs.Counter
}

func newSwitch(eng *sim.Engine, reg *obs.Registry) *Switch {
	s := &Switch{
		eng:    eng,
		fdb:    make(map[nic.MAC]int),
		learns: reg.Counter("cluster.switch.learns"),
		floods: reg.Counter("cluster.switch.floods"),
	}
	s.pool.land = s.land
	return s
}

// addPort registers an egress link named after the host NIC port it feeds
// and returns its port index.
func (s *Switch) addPort(reg *obs.Registry, name string, cfg LinkConfig, deliver func(nic.Batch)) int {
	i := len(s.links)
	s.links = append(s.links, newLink(i, "cluster:link:"+name, cfg))
	prefix := "cluster.link." + name
	s.ports = append(s.ports, port{
		deliver:   deliver,
		txPackets: reg.Counter(prefix + ".tx_packets"),
		txBytes:   reg.Counter(prefix + ".tx_bytes"),
		dropped:   reg.Counter(prefix + ".dropped_pkts"),
		util:      reg.Gauge(prefix + ".util"),
		depth:     reg.Histogram(prefix+".queue_kib", queueDepthBounds()...),
		sojourn:   reg.Histogram(prefix + ".sojourn"),
	})
	return i
}

// send forwards a batch out of egress port i.
func (s *Switch) send(i int, b nic.Batch) {
	l, p := s.links[i], &s.ports[i]
	now := s.eng.Now()
	tx, ok := l.enqueue(now, b.Bytes)
	if !ok {
		p.dropped.Add(int64(b.Count))
		return
	}
	p.depth.ObserveN(encodeKiB(l.qBytes), 1)
	p.busyAccum += tx
	r := s.pool.get()
	r.b, r.enq, r.path, r.hop = b, now, s.links[i:i+1], 0
	s.eng.At(l.arrival(), l.evName, r.fire)
}

// land completes a forward: the batch has crossed egress link l.
func (s *Switch) land(r *flight, l *link) {
	p, b := &s.ports[l.index], r.b
	p.txPackets.Add(int64(b.Count))
	p.txBytes.Add(int64(b.Bytes))
	now := s.eng.Now()
	p.sojourn.ObserveN(now.Sub(r.enq), int64(b.Count))
	if now > 0 {
		p.util.Set(float64(p.busyAccum) / float64(now))
	}
	s.pool.put(r)
	p.deliver(b)
}

// ingress is a frame batch arriving from a host uplink. Learning is
// load-bearing: after a migration the target host gratuitously announces
// the moved MAC, and until that announcement arrives, frames keep going to
// the stale port (and are dropped there) — exactly the transient a real
// ToR exhibits.
func (s *Switch) ingress(from int, b nic.Batch) {
	if b.Src != 0 && b.Src != nic.Broadcast {
		if cur, ok := s.fdb[b.Src]; !ok || cur != from {
			s.fdb[b.Src] = from
			s.learns.Inc()
		}
	}
	if b.Dst != nic.Broadcast {
		if out, ok := s.fdb[b.Dst]; ok {
			if out != from {
				s.send(out, b)
			}
			return
		}
	}
	s.floods.Inc()
	for i := range s.links {
		if i != from {
			s.send(i, b)
		}
	}
}
