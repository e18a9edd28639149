// Package core assembles the paper's testbed (§6.1): a 16-thread 2.8 GHz
// server running a Xen-like hypervisor, ten SR-IOV-capable 1 GbE ports on a
// PCIe fabric behind a VT-d IOMMU, dom0 with PF drivers, and guests wired up
// with VF drivers, PV split drivers, VMDq, or bonded DNIS configurations.
// It is the implementation behind the repository's public API (package
// sriov at the module root).
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/guest"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// Config parameterizes a testbed.
type Config struct {
	Seed       uint64
	Ports      int // SR-IOV ports (default 10, the paper's aggregate 10 GbE)
	VFsPerPort int // default 7 (Fig. 11)
	PortRate   units.BitRate
	// Eng, when set, is the event engine the testbed runs on instead of
	// creating its own — how a cluster puts N hosts on one clock (Seed is
	// then ignored). Single-host testbeds leave it nil.
	Eng *sim.Engine
	// Arena, when set, is the event free list the testbed's engine draws
	// from, so engines built one after another on a runner worker reuse
	// event storage across experiment points. Ignored when Eng is set; nil
	// gives the engine a private arena. Purely an allocation optimization —
	// results never depend on it.
	Arena *sim.Arena
	// Name, when set, prefixes port names ("h0:eth0") so instrument names
	// from different hosts sharing one obs registry never collide.
	Name string
	// HostID offsets the testbed's MAC allocator so guests on different
	// hosts of a cluster get distinct addresses. Zero keeps the historical
	// base (fine for a single host).
	HostID int
	Opts   vmm.Optimizations
	// Flavor selects the VMM personality (Xen default; KVM per the §4
	// portability claim — identical drivers, no PVM guests).
	Flavor vmm.Flavor
	// NetbackThreads sizes the PV backend pool (1 = the stock Xen driver,
	// >1 = the §6.5 enhancement). Default 8.
	NetbackThreads int
	// VMDqThreads sizes the VMDq bridge pool (Fig. 19). 0 disables VMDq.
	VMDqThreads int
	// GuestMemory sizes each guest (default 128 MiB so 60 guests fit the
	// 12 GB machine; migration experiments use model.GuestMemory guests).
	GuestMemory units.Size
	// Obs receives the testbed's metrics (exit counters, mailbox counters,
	// per-hop latency histograms). nil gets a fresh registry, so metrics
	// are always collected; experiments pass the runner's per-point
	// registry here so the suite can merge them deterministically.
	Obs *obs.Registry
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Ports == 0 {
		c.Ports = model.PortsPerBed
	}
	if c.VFsPerPort == 0 {
		c.VFsPerPort = model.VFsPerPort
	}
	if c.PortRate == 0 {
		c.PortRate = model.PortRate
	}
	if c.NetbackThreads == 0 {
		c.NetbackThreads = 8
	}
	if c.GuestMemory == 0 {
		c.GuestMemory = 128 * units.MiB
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
}

// Testbed is the assembled server machine.
type Testbed struct {
	cfg Config

	Eng     *sim.Engine
	Meter   *cpu.Meter
	Fabric  *pcie.Fabric
	IOMMU   *iommu.IOMMU
	HV      *vmm.Hypervisor
	Machine *mem.Machine

	// Obs is the metrics registry every component reports into.
	Obs *obs.Registry

	Ports []*nic.Port
	PFs   []*drivers.PFDriver

	Netback *drivers.Netback
	VMDq    *drivers.VMDqBridge

	// datapaths lists every software backend in creation order — the
	// deterministic sequence audits and figures walk. vhost, ovs and swpass
	// join it when the first guest asks for them.
	datapaths []drivers.Datapath
	// wires holds, per port, the software backend tapping its PF queue, or
	// nil. The queue has one DirectDeliver, so one backend serves a port.
	wires []drivers.Datapath

	guests  []*Guest
	nextMAC uint64
}

// Guest bundles one VM with its network plumbing.
type Guest struct {
	Dom  *vmm.Domain
	Recv *guest.NetReceiver
	MAC  nic.MAC

	VF   *drivers.VFDriver
	PV   *drivers.PVNic
	Bond *drivers.Bond

	// Backend is the software datapath serving this guest (nil for pure
	// SR-IOV guests, whose path is the VF hardware). Service chains and
	// inter-VM senders Inject host-local batches here.
	Backend drivers.Datapath

	// Port the guest's traffic arrives on.
	Port *nic.Port

	Source *workload.Source
}

// NewTestbed builds the server.
func NewTestbed(cfg Config) *Testbed {
	cfg.fill()
	eng := cfg.Eng
	if eng == nil {
		eng = sim.NewEngineArena(cfg.Seed, cfg.Arena)
	}
	meter := cpu.NewMeter()
	fabric := pcie.NewFabric()
	mmu := iommu.New(4096)
	fabric.SetIOMMU(mmu)
	hv := vmm.NewFlavored(eng, meter, fabric, mmu, cfg.Opts, cfg.Flavor)

	hv.Obs = cfg.Obs

	tb := &Testbed{
		cfg: cfg, Eng: eng, Meter: meter, Fabric: fabric, IOMMU: mmu, HV: hv,
		Obs:     cfg.Obs,
		Machine: mem.NewMachine(model.ServerMemory),
		nextMAC: 0x02_00_00_00_00_01 | uint64(cfg.HostID)<<24,
	}
	portName := func(i int) string {
		if cfg.Name != "" {
			return fmt.Sprintf("%s:eth%d", cfg.Name, i)
		}
		return fmt.Sprintf("eth%d", i)
	}

	// The paper's NICs: two 4-port and one 2-port 82576 cards. Build one
	// switch per card so the topology has the §4.3 P2P structure.
	portIdx := 0
	for portIdx < cfg.Ports {
		n := cfg.Ports - portIdx
		if n > 4 {
			n = 4
		}
		card := len(tb.Ports) / 4
		rp := fabric.AddRootPort(fmt.Sprintf("rp%d", card))
		sw := pcie.NewSwitch(fmt.Sprintf("sw%d", card), n)
		fabric.AddSwitch(rp, sw)
		for i := 0; i < n; i++ {
			p := nic.New(eng, nic.Config{
				Name:   portName(portIdx),
				NumVFs: cfg.VFsPerPort,
				Rate:   cfg.PortRate,
			})
			p.Obs = cfg.Obs
			fabric.Attach(sw.Downstream(i), p.Device())
			tb.Ports = append(tb.Ports, p)
			portIdx++
		}
	}
	fabric.Enumerate()
	for _, p := range tb.Ports {
		pf := drivers.NewPFDriver(hv, p)
		if err := pf.EnableVFs(cfg.VFsPerPort); err != nil {
			panic(err) // construction-time invariant
		}
		tb.PFs = append(tb.PFs, pf)
	}
	tb.wires = make([]drivers.Datapath, len(tb.Ports))
	tb.Netback = drivers.NewNetback(hv, cfg.NetbackThreads)
	tb.datapaths = append(tb.datapaths, tb.Netback)
	if cfg.VMDqThreads > 0 {
		tb.VMDq = drivers.NewVMDqBridge(hv, cfg.VMDqThreads)
		// The bridge and its copying fallback keep separate books; audit
		// both.
		tb.datapaths = append(tb.datapaths, tb.VMDq, tb.VMDq.Fallback())
	}
	return tb
}

// Datapaths reports every software backend in creation order — the stable
// sequence the invariant audit walks. Hardware (VF) paths are audited
// through their receive rings instead.
func (tb *Testbed) Datapaths() []drivers.Datapath { return tb.datapaths }

// backend returns the first software backend of the given kind, building a
// vhost, ovs or swpass backend on first use.
func (tb *Testbed) backend(kind string) (drivers.Datapath, error) {
	for _, dp := range tb.datapaths {
		if dp.Kind() == kind {
			return dp, nil
		}
	}
	var dp drivers.Datapath
	switch kind {
	case "vhost":
		dp = drivers.NewVhost(tb.HV)
	case "ovs":
		dp = drivers.NewOVSSwitch(tb.HV)
	case "swpass":
		dp = drivers.NewSoftPassthrough(tb.HV)
	case "vmdq":
		return nil, fmt.Errorf("core: testbed built without VMDq")
	default:
		return nil, fmt.Errorf("core: unknown backend kind %q", kind)
	}
	tb.datapaths = append(tb.datapaths, dp)
	return dp, nil
}

// Config reports the testbed configuration.
func (tb *Testbed) Config() Config { return tb.cfg }

// Guests reports all created guests.
func (tb *Testbed) Guests() []*Guest { return tb.guests }

// allocMAC hands out locally administered MACs.
func (tb *Testbed) allocMAC() nic.MAC {
	m := nic.MAC(tb.nextMAC)
	tb.nextMAC++
	return m
}

func (tb *Testbed) newDomain(name string, typ vmm.DomainType, k vmm.KernelConfig) (*vmm.Domain, error) {
	dm, err := mem.NewDomainMemory(tb.Machine, tb.cfg.GuestMemory)
	if err != nil {
		return nil, err
	}
	return tb.HV.CreateDomain(name, typ, k, dm), nil
}

// CheckVF reports an error unless VF vf of port exists on this testbed.
func (tb *Testbed) CheckVF(port, vf int) error {
	if err := tb.checkPort(port); err != nil {
		return err
	}
	if n := tb.Ports[port].NumVFs(); vf < 0 || vf >= n {
		return fmt.Errorf("core: no VF %d on port %d (%d VFs)", vf, port, n)
	}
	return nil
}

// CheckGuestMemory reports an error unless the machine has free frames for
// one more guest of the testbed's guest size.
func (tb *Testbed) CheckGuestMemory() error {
	need := uint64(tb.cfg.GuestMemory / mem.PageSize)
	if free := tb.Machine.FreePages(); free < need {
		return fmt.Errorf("core: no machine memory for a %v guest (%d pages free, %d needed)",
			tb.cfg.GuestMemory, free, need)
	}
	return nil
}

func (tb *Testbed) checkPort(port int) error {
	if port < 0 || port >= len(tb.Ports) {
		return fmt.Errorf("core: no port %d", port)
	}
	return nil
}

// checkWire refuses a software backend of the given kind on a port whose
// wire a backend of another kind already taps: attaching it would take
// all of the port's traffic from the first backend's guests.
func (tb *Testbed) checkWire(port int, kind string) error {
	if err := tb.checkPort(port); err != nil {
		return err
	}
	if owner := tb.wires[port]; owner != nil && owner.Kind() != kind {
		return fmt.Errorf("core: port %d's wire is served by the %s backend, not %s", port, owner.Kind(), kind)
	}
	return nil
}

// attachWire has dp tap port's PF queue, once, and routes mac to it.
func (tb *Testbed) attachWire(port int, dp drivers.Datapath, mac nic.MAC) {
	if tb.wires[port] == nil {
		dp.AttachWire(tb.Ports[port].PFQueue())
		tb.wires[port] = dp
	}
	tb.PFs[port].SetDom0MAC(mac)
}

// AddSRIOVGuest creates a guest with a dedicated VF: the §6.1 configuration.
// port and vf choose the function; policy nil means the VF driver default
// (fixed 2 kHz). A VF that does not exist, does not respond or is held by
// another guest is refused before the guest's domain is created.
func (tb *Testbed) AddSRIOVGuest(name string, typ vmm.DomainType, k vmm.KernelConfig, port, vf int, policy netstack.ITRPolicy) (*Guest, error) {
	fn, err := tb.hotAddVF(port, vf)
	if err != nil {
		return nil, err
	}
	if owner, held := tb.IOMMU.DomainOf(uint16(fn.RID())); held {
		return nil, fmt.Errorf("core: %s is already assigned to domain %d", fn, owner)
	}
	d, err := tb.newDomain(name, typ, k)
	if err != nil {
		return nil, err
	}
	g := &Guest{Dom: d, Recv: guest.NewNetReceiver(tb.HV, d), MAC: tb.allocMAC(), Port: tb.Ports[port]}
	if err := tb.attachVFTo(g, fn, port, vf, policy); err != nil {
		return nil, err
	}
	tb.guests = append(tb.guests, g)
	return g, nil
}

// hotAddVF hot-adds VF (port, vf), refusing one that does not exist or
// does not respond.
func (tb *Testbed) hotAddVF(port, vf int) (*pcie.Function, error) {
	if err := tb.CheckVF(port, vf); err != nil {
		return nil, err
	}
	fn := tb.Ports[port].VFQueue(vf).Function()
	if _, err := tb.Fabric.HotAdd(fn.RID()); err != nil {
		return nil, err
	}
	return fn, nil
}

// attachVFTo assigns and drives hot-added VF fn, (port, vf), for guest g.
func (tb *Testbed) attachVFTo(g *Guest, fn *pcie.Function, port, vf int, policy netstack.ITRPolicy) error {
	p := tb.Ports[port]
	if err := tb.HV.AssignDevice(g.Dom, fn); err != nil {
		return err
	}
	drv, err := drivers.AttachVFDriver(tb.HV, g.Dom, p, vf, g.Recv, drivers.VFConfig{MAC: g.MAC, Policy: policy})
	if err != nil {
		return err
	}
	g.VF = drv
	g.Port = p
	return nil
}

// AddPVGuest creates a guest served by the PV split driver (§6.5 baseline):
// its MAC is routed to the dom0 bridge on the given port.
func (tb *Testbed) AddPVGuest(name string, typ vmm.DomainType, k vmm.KernelConfig, port int) (*Guest, error) {
	return tb.AddBackendGuest("pv", name, typ, k, port, 0, nil)
}

// AddBackendGuest creates a guest on the backend named by kind — the
// dispatcher behind `sriovsim -backend` and the fig19/fig26/fig27 sweeps.
// vf and policy apply to the "vf" kind only; "vmdq" requires
// VMDqThreads > 0.
//
// Every other kind is a dom0 software backend: the guest's MAC is routed to
// the dom0 PF queue on port, which one backend kind serves. The backend is
// only looked up (and built on first use) once the port is known to exist
// and free of other backends and, like the domain's memory, a refused port
// changes nothing. A PV guest keeps its *PVNic, which a bond or a migration
// fails over to.
func (tb *Testbed) AddBackendGuest(kind, name string, typ vmm.DomainType, k vmm.KernelConfig, port, vf int, policy netstack.ITRPolicy) (*Guest, error) {
	if kind == "vf" {
		return tb.AddSRIOVGuest(name, typ, k, port, vf, policy)
	}
	if err := tb.checkWire(port, kind); err != nil {
		return nil, err
	}
	dp, err := tb.backend(kind)
	if err != nil {
		return nil, err
	}
	d, err := tb.newDomain(name, typ, k)
	if err != nil {
		return nil, err
	}
	g := &Guest{Dom: d, Recv: guest.NewNetReceiver(tb.HV, d), MAC: tb.allocMAC(), Port: tb.Ports[port]}
	if nb, ok := dp.(*drivers.Netback); ok {
		g.PV, err = nb.CreateVif(d, g.MAC, g.Recv)
	} else {
		err = dp.AddVif(d, g.MAC, g.Recv)
	}
	if err != nil {
		return nil, err
	}
	g.Backend = dp
	tb.attachWire(port, dp, g.MAC)
	tb.guests = append(tb.guests, g)
	return g, nil
}

// AddBondedGuest creates a DNIS guest: a VF (active) bonded with a PV NIC
// (standby) on the same port (§4.4).
func (tb *Testbed) AddBondedGuest(name string, typ vmm.DomainType, k vmm.KernelConfig, port, vf int, policy netstack.ITRPolicy) (*Guest, error) {
	return tb.AddBondedGuestOn(name, typ, k, port, vf, port, policy)
}

// AddBondedGuestOn is AddBondedGuest with the PV standby routed through a
// separately chosen port — the survivable configuration for port-level
// faults (a link flap on the VF's port must not also kill the standby). A
// PV port whose wire another backend kind serves is refused.
func (tb *Testbed) AddBondedGuestOn(name string, typ vmm.DomainType, k vmm.KernelConfig, vfPort, vf, pvPort int, policy netstack.ITRPolicy) (*Guest, error) {
	if err := tb.checkWire(pvPort, tb.Netback.Kind()); err != nil {
		return nil, err
	}
	g, err := tb.AddSRIOVGuest(name, typ, k, vfPort, vf, policy)
	if err != nil {
		return nil, err
	}
	pvMAC := tb.allocMAC()
	pv, err := tb.Netback.CreateVif(g.Dom, pvMAC, g.Recv)
	if err != nil {
		return nil, err
	}
	tb.attachWire(pvPort, tb.Netback, pvMAC)
	g.PV = pv
	g.Bond = drivers.NewBond(tb.HV, g.Dom, g.VF, pv, tb.Ports[pvPort])
	return g, nil
}

// SetTracer installs a trace on the hypervisor and every port, so
// control-plane, fault and recovery events land in one timeline and drained
// batches leave per-hop spans for the trace exporter.
func (tb *Testbed) SetTracer(t *obs.Trace) {
	tb.HV.Tracer = t
	for _, p := range tb.Ports {
		p.Tracer = t
	}
}

// ReattachVF builds a fresh VF driver instance on (port, vf) for an
// existing guest — the DNIS hot add-on at the migration target.
func (tb *Testbed) ReattachVF(g *Guest, port, vf int, policy netstack.ITRPolicy) (*drivers.VFDriver, error) {
	fn, err := tb.hotAddVF(port, vf)
	if err != nil {
		return nil, err
	}
	if err := tb.attachVFTo(g, fn, port, vf, policy); err != nil {
		return nil, err
	}
	return g.VF, nil
}

// StartUDP attaches a CBR UDP_STREAM source to the guest's wire ingress.
// Guests without a VF are served by software paths that batch on their own
// poll interval, so their sources use a coarser tick for simulation speed.
func (tb *Testbed) StartUDP(g *Guest, rate units.BitRate) {
	tb.StartUDPFramed(g, rate, model.FrameSize)
}

// StartUDPFramed is StartUDP with an explicit frame size — the NFV
// packet-size sweeps (fig26) offer the same bit rate in anything from
// 64-byte minimum frames to full MTU.
func (tb *Testbed) StartUDPFramed(g *Guest, rate units.BitRate, frame units.Size) {
	g.Source = workload.NewSource(tb.Eng, rate, frame, tb.ingress(g))
	switch {
	case g.VF == nil || rate < 400*units.Mbps:
		// Low-rate streams coalesce at ≤2 kHz anyway; software-batched
		// paths (PV, VMDq) batch on their own poll interval. A coarser
		// generator tick keeps the event count proportional to what
		// actually limits fidelity.
		g.Source.SetTickPeriod(250 * units.Microsecond)
	default:
		// Keep per-tick batches small relative to the socket burst so
		// generator quantization never masquerades as overflow: aim for
		// ~8 packets per delivery, bounded to [10 µs, 50 µs].
		pps := model.PacketsPerSecond(rate, frame)
		tick := units.Duration(8 / pps * float64(units.Second))
		if tick < 10*units.Microsecond {
			tick = 10 * units.Microsecond
		}
		if tick > 50*units.Microsecond {
			tick = 50 * units.Microsecond
		}
		g.Source.SetTickPeriod(tick)
	}
	g.Source.Start()
}

// StartTCP attaches a TCP_STREAM at the steady-state equilibrium for the
// given coalescing policy, returning the equilibrium rate.
func (tb *Testbed) StartTCP(g *Guest, policy netstack.ITRPolicy) units.BitRate {
	rate := netstack.TCPSteadyState(policy)
	g.Source = workload.NewSource(tb.Eng, rate, model.FrameSize, tb.ingress(g))
	g.Source.Start()
	return rate
}

// ingress builds the wire-delivery sink for a guest: bond if present, else
// direct to its MAC on its port.
func (tb *Testbed) ingress(g *Guest) workload.Sink {
	if g.Bond != nil {
		return func(n int, b units.Size) { g.Bond.Ingress(n, b) }
	}
	port := g.Port
	mac := g.MAC
	return func(n int, b units.Size) {
		port.ReceiveFromWire(nic.Batch{Dst: mac, Count: n, Bytes: b})
	}
}

// StopAll stops every guest's traffic source.
func (tb *Testbed) StopAll() {
	for _, g := range tb.guests {
		if g.Source != nil {
			g.Source.Stop()
			g.Source = nil
		}
	}
}

// Utilization is the per-domain CPU breakdown of one measurement window,
// in percent-of-one-thread as the paper reports it (100 = one thread).
type Utilization struct {
	Dom0   float64
	Xen    float64
	Guests float64 // summed across guest domains
	Total  float64
	// PerGuest maps domain name → utilization.
	PerGuest map[string]float64
}

// Measure runs the simulation for warmup, then measures CPU and per-guest
// goodput over window. Timer and dom0 baselines are charged analytically
// for the window. Sources must already be running.
func (tb *Testbed) Measure(warmup, window units.Duration) (Utilization, map[*Guest]workload.Result) {
	tb.Eng.RunUntil(tb.Eng.Now().Add(warmup))
	wins := tb.BeginMeasure()
	end := tb.Eng.RunUntil(tb.Eng.Now().Add(window))
	return tb.EndMeasure(wins, window, end)
}

// BeginMeasure opens a measurement window at the current time: it resets
// the CPU meter and starts a goodput window per guest. The caller advances
// the engine (possibly shared with other testbeds) and closes with
// EndMeasure — the split a cluster needs to measure N hosts over one run.
func (tb *Testbed) BeginMeasure() map[*Guest]workload.Window {
	tb.Meter.ResetWindow(tb.Eng.Now())
	wins := make(map[*Guest]workload.Window, len(tb.guests))
	for _, g := range tb.guests {
		wins[g] = workload.StartWindow(tb.Eng.Now(), g.Recv)
	}
	return wins
}

// EndMeasure charges the window's analytic baselines and reports CPU and
// per-guest goodput for a window opened by BeginMeasure. end is the
// engine time the window closed at (the RunUntil return).
func (tb *Testbed) EndMeasure(wins map[*Guest]workload.Window, window units.Duration, end units.Time) (Utilization, map[*Guest]workload.Result) {
	// Analytic baselines for the window.
	for _, d := range tb.HV.Domains() {
		if d.Type == vmm.HVM || d.Type == vmm.PVM || d.Type == vmm.Native {
			tb.HV.ChargeTimerBaseline(d, window)
		}
	}
	tb.HV.ChargeDom0Baseline(window)

	u := Utilization{PerGuest: make(map[string]float64)}
	u.Dom0 = tb.Meter.Utilization(tb.HV.Dom0().Ledger(), end)
	u.Xen = tb.Meter.Utilization(tb.HV.Xen(), end)
	for _, d := range tb.HV.Domains() {
		if d.Type == vmm.Dom0 {
			continue
		}
		v := tb.Meter.Utilization(d.Ledger(), end)
		u.PerGuest[d.Name] = v
		u.Guests += v
	}
	u.Total = tb.Meter.TotalUtilization(end)

	results := make(map[*Guest]workload.Result, len(tb.guests))
	for g, w := range wins {
		results[g] = w.Close(end)
	}
	return u, results
}

// AggregateGoodput sums goodput across a measurement's results.
func AggregateGoodput(results map[*Guest]workload.Result) units.BitRate {
	var total units.BitRate
	for _, r := range results {
		total += r.Goodput
	}
	return total
}
