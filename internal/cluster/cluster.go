// Package cluster scales the single-server testbed out across the machine
// boundary: N core.Testbed hosts share one event clock and hang off a
// simulated top-of-rack switch with MAC learning, per-link bandwidth and
// latency, and bounded tail-drop egress queues. On top of the fabric it
// provides cross-host workload flows (netperf endpoints on different
// hosts) and inter-host DNIS live migration, whose pre-copy traffic
// contends with foreground VM traffic on the same links.
//
// Determinism: the whole cluster runs on one sim.Engine; every map the
// fabric keeps (forwarding database, per-host MAC dispatch) is only ever
// *looked up* per frame, never iterated on the data path — floods walk the
// ordered port slice — so a cluster simulation is a pure function of its
// seed regardless of runner parallelism.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config parameterizes a cluster.
type Config struct {
	Hosts        int // default 2
	PortsPerHost int // NIC ports (= fabric uplinks) per host, default 1
	Seed         uint64
	// Link shapes every fabric link (sriovsim's -links flag).
	Link LinkConfig
	// Host is the per-host testbed template: Opts, Flavor, VFsPerPort,
	// PortRate, NetbackThreads, GuestMemory apply to every host. Seed,
	// Eng, Ports, Name, HostID and Obs are overridden by the cluster.
	Host core.Config
	// Obs receives every host's and the fabric's metrics; nil gets a
	// fresh registry.
	Obs *obs.Registry
	// Arena, when set, supplies the shared engine's event free list (see
	// core.Config.Arena); nil gives it a private one.
	Arena *sim.Arena
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Hosts == 0 {
		c.Hosts = 2
	}
	if c.PortsPerHost == 0 {
		c.PortsPerHost = 1
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
}

// Cluster is N hosts behind one ToR switch on a shared clock.
type Cluster struct {
	Eng    *sim.Engine
	Obs    *obs.Registry
	Switch *Switch

	hosts   []*Host
	flows   []*Flow
	nextCtl uint64 // control-plane MAC allocator (migration channels)
}

// Host is one server of the cluster: a full testbed plus its fabric
// attachment — per-NIC-port uplinks into the switch and a MAC dispatch
// table the switch's downlinks deliver into.
type Host struct {
	Name string
	Bed  *core.Testbed

	cl *Cluster
	// swPort maps the host's NIC port index to its switch port.
	swPort []int
	// sinks routes destination MACs arriving from the fabric. Lookup
	// only — never iterated.
	sinks map[nic.MAC]func(nic.Batch)

	unknown *obs.Counter
	fabric  *obs.Hist // doorbell→host latency across the fabric
}

// New assembles the cluster: hosts on a shared engine, uplinks wired to
// the switch (port i of host h ↔ one switch port), all instrumented
// through one registry.
func New(cfg Config) *Cluster {
	cfg.fill()
	if err := cfg.Link.validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	eng := sim.NewEngineArena(cfg.Seed, cfg.Arena)
	c := &Cluster{Eng: eng, Obs: cfg.Obs, Switch: newSwitch(eng, cfg.Obs)}
	for i := 0; i < cfg.Hosts; i++ {
		hcfg := cfg.Host
		hcfg.Seed = cfg.Seed
		hcfg.Eng = eng
		hcfg.Obs = cfg.Obs
		hcfg.Ports = cfg.PortsPerHost
		hcfg.Name = fmt.Sprintf("h%d", i)
		hcfg.HostID = i
		h := &Host{
			Name:    hcfg.Name,
			Bed:     core.NewTestbed(hcfg),
			cl:      c,
			sinks:   make(map[nic.MAC]func(nic.Batch)),
			unknown: cfg.Obs.Counter("cluster." + hcfg.Name + ".unknown_mac_drops"),
			fabric:  cfg.Obs.Histogram("cluster." + hcfg.Name + ".fabric_latency"),
		}
		for _, p := range h.Bed.Ports {
			sp := c.Switch.addPort(cfg.Obs, p.Name(), cfg.Link, h.route)
			h.swPort = append(h.swPort, sp)
			// The host's wire egress feeds the switch: the NIC's transmit
			// serialization is the uplink's bandwidth model. Frames whose
			// destination lives on this very host short-circuit through the
			// NIC's internal L2 switch instead — a ToR would never hairpin
			// them back out the ingress port. This is what keeps a flow
			// alive when a migration lands the receiver next to its sender.
			p.Egress = func(b nic.Batch) {
				if _, ok := h.sinks[b.Dst]; ok {
					h.route(b)
					return
				}
				c.Switch.ingress(sp, b)
			}
		}
		c.hosts = append(c.hosts, h)
	}
	return c
}

// Hosts reports the cluster's hosts in index order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Host returns host i.
func (c *Cluster) Host(i int) *Host { return c.hosts[i] }

// allocCtlMAC hands out control-plane MACs (migration channel endpoints),
// from a range disjoint from every testbed's guest allocator.
func (c *Cluster) allocCtlMAC() nic.MAC {
	c.nextCtl++
	return nic.MAC(0x02_ff_00_00_00_00 | c.nextCtl)
}

// route delivers a fabric frame into the host: by MAC dispatch to a
// connected guest (or control endpoint), discarding announcements and
// counting frames for MACs nobody claims — the observable loss mode while
// a migrated MAC's gratuitous announcement is still in flight.
func (h *Host) route(b nic.Batch) {
	if b.SentAt > 0 {
		h.fabric.ObserveN(h.Bed.Eng.Now().Sub(b.SentAt), int64(b.Count))
	}
	if sink, ok := h.sinks[b.Dst]; ok {
		sink(b)
		return
	}
	if b.Dst == nic.Broadcast {
		return
	}
	h.unknown.Add(int64(b.Count))
}

// Connect attaches a guest to the fabric: frames for its MAC arriving on
// the host's downlink are delivered to it, and the MAC is gratuitously
// announced so the ToR learns where it lives before real traffic flows.
func (h *Host) Connect(g *core.Guest) {
	h.sinks[g.MAC] = func(b nic.Batch) { h.deliverGuest(g, b) }
	h.announce(g.Port, g.MAC)
}

// Claims reports whether the host's dispatch table routes frames for mac —
// the placement ground truth a control plane audits its books against (a
// migrated MAC must be claimed by exactly one host).
func (h *Host) Claims(mac nic.MAC) bool {
	_, ok := h.sinks[mac]
	return ok
}

// deliverGuest hands a fabric frame to the guest's wire entry: through the
// bond when present (DNIS guests), else straight to its MAC on its port.
// The doorbell stamp survives, so the receive-side path histograms include
// the fabric hops.
func (h *Host) deliverGuest(g *core.Guest, b nic.Batch) {
	if g.Bond != nil {
		g.Bond.Ingress(b.Count, b.Bytes)
		return
	}
	g.Port.ReceiveFromWire(nic.Batch{Dst: g.MAC, Src: b.Src, Count: b.Count, Bytes: b.Bytes, SentAt: b.SentAt})
}

// announce injects a one-frame gratuitous broadcast with the given source
// MAC at the port's uplink, teaching the switch the MAC's location.
func (h *Host) announce(p *nic.Port, mac nic.MAC) {
	sp := h.swPortOf(p)
	h.cl.Switch.ingress(sp, nic.Batch{Src: mac, Dst: nic.Broadcast, Count: 1, Bytes: 64 * units.Byte})
}

// swPortOf maps a NIC port back to its switch port index.
func (h *Host) swPortOf(p *nic.Port) int {
	for i, hp := range h.Bed.Ports {
		if hp == p {
			return h.swPort[i]
		}
	}
	panic("cluster: port not on this host")
}

// Flow is one cross-host netperf-style stream: a CBR source on the sending
// guest whose packets pay the full path — sender syscalls and TX
// descriptors, wire serialization, switch queueing, downlink delivery,
// receive-side interrupt and stack costs on the other host.
type Flow struct {
	source *workload.Source
	sender *guest.NetSender
}

// StartFlow starts a cross-host stream from src (on host `from`, which
// must hold a VF for the external TX path) to dst (Connected on host
// `to`).
func (c *Cluster) StartFlow(from *Host, src *core.Guest, to *Host, dst *core.Guest, rate units.BitRate) (*Flow, error) {
	if src.VF == nil {
		return nil, fmt.Errorf("cluster: cross-host sender %s needs a VF", src.Dom.Name)
	}
	if _, ok := to.sinks[dst.MAC]; !ok {
		return nil, fmt.Errorf("cluster: destination %s not connected on %s", dst.Dom.Name, to.Name)
	}
	f := &Flow{sender: guest.NewNetSender(from.Bed.HV, src.Dom)}
	dstMAC := dst.MAC
	f.source = workload.NewSource(c.Eng, rate, model.FrameSize, func(n int, bytes units.Size) {
		// A generator tick is lost while the source VF is detached
		// (mid-migration).
		if !src.VF.Attached() {
			return
		}
		src.VF.TransmitExternal(f.sender, dstMAC, bytes, model.FrameSize)
	})
	f.source.Start()
	c.flows = append(c.flows, f)
	return f, nil
}

// Stop halts the flow's generator.
func (f *Flow) Stop() { f.source.Stop() }

// HostMeasure is one host's share of a cluster measurement.
type HostMeasure struct {
	Util    core.Utilization
	Results map[*core.Guest]workload.Result
}

// Measure advances the shared clock through warmup, opens a measurement
// window on every host, runs the window, and closes them — the multi-host
// equivalent of Testbed.Measure, in host index order so merged metrics
// are deterministic.
func (c *Cluster) Measure(warmup, window units.Duration) []HostMeasure {
	c.Eng.RunUntil(c.Eng.Now().Add(warmup))
	wins := make([]map[*core.Guest]workload.Window, len(c.hosts))
	for i, h := range c.hosts {
		wins[i] = h.Bed.BeginMeasure()
	}
	end := c.Eng.RunUntil(c.Eng.Now().Add(window))
	out := make([]HostMeasure, len(c.hosts))
	for i, h := range c.hosts {
		u, res := h.Bed.EndMeasure(wins[i], window, end)
		out[i] = HostMeasure{Util: u, Results: res}
	}
	return out
}

// StopAll stops every flow and every host-local source.
func (c *Cluster) StopAll() {
	for _, f := range c.flows {
		f.Stop()
	}
	c.flows = nil
	for _, h := range c.hosts {
		h.Bed.StopAll()
	}
}

// QueuedBytes sums the backlog across every fabric queue.
func (c *Cluster) QueuedBytes() units.Size { return queuedBytes(c.Switch.links) }

// FabricDrops sums tail drops across every fabric link.
func (c *Cluster) FabricDrops() int64 {
	return c.Obs.SumCounters("cluster.link.", ".dropped_pkts")
}
