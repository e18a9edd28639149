package ctlplane

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/migration"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Config parameterizes a Controller.
type Config struct {
	// ReconcilePeriod is the controller's tick (default 100 ms).
	ReconcilePeriod units.Duration
	// Heal re-attaches fresh VFs (new slot, hot-plug path) for failures the
	// driver watchdog cannot fix: surprise-removed functions and dead links.
	Heal bool
	// Policy plans rebalancing moves; nil freezes placement (heal-only).
	Policy Policy
	// MaxConcurrent caps in-flight migrations (default 1).
	MaxConcurrent int
	// MoveBudget caps total policy-driven migrations over the controller's
	// lifetime; 0 means unlimited. Heals are not moves and never count.
	MoveBudget int
	// Obs receives the controller's counters; nil gets a fresh registry.
	Obs *obs.Registry
}

func (c *Config) fill() {
	if c.ReconcilePeriod == 0 {
		c.ReconcilePeriod = 100 * units.Millisecond
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 1
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
}

// VM is one managed service the controller places and keeps alive. The
// Guest pointer moves when a migration completes — the VM is the stable
// identity, the guest an incarnation of it.
type VM struct {
	Name  string
	Guest *core.Guest
	// Host is the current placement (cluster host index).
	Host int
	// Group is the failure-domain anti-affinity group ("" = none).
	Group string
	// Rate is the nominal offered service rate, the policies' load signal.
	Rate units.BitRate

	policy netstack.ITRPolicy
	// mac is the stable service identity: the MAC clients address, carried
	// across migrations by the DNIS sinks swap (incarnations get their own
	// device MACs underneath it).
	mac nic.MAC
	// port/vf is the VF slot the controller's books charge this VM for
	// (-1/-1 while it runs PV-only after an aborted migration).
	port, vf int
	pvPort   int
	// accumPkts carries delivered-packet counts across incarnations so the
	// SLO probe stays monotone when Guest is swapped.
	accumPkts int64
	migrating bool
	gen       int
}

// Delivered reports the VM's cumulative application-delivered packets
// across all incarnations — the controller-level SLO probe.
func (v *VM) Delivered() int64 {
	return v.accumPkts + v.Guest.Recv.Stats.AppPackets
}

// Gen reports how many completed migrations this VM has behind it.
func (v *VM) Gen() int { return v.gen }

// Slot reports the VM's current VF slot (-1/-1 while PV-only).
func (v *VM) Slot() (port, vf int) { return v.port, v.vf }

// slotBook tracks one host's VF slots: who owns each, and which ones died
// under their driver (surprise removal, poisoned by a heal) and are never
// re-issued.
type slotBook struct {
	owner [][]string // [port][vf]; "" = free
	dead  [][]bool
}

func newSlotBook(ports, vfs int) *slotBook {
	b := &slotBook{owner: make([][]string, ports), dead: make([][]bool, ports)}
	for p := range b.owner {
		b.owner[p] = make([]string, vfs)
		b.dead[p] = make([]bool, vfs)
	}
	return b
}

func (b *slotBook) free() int {
	n := 0
	for p := range b.owner {
		for v := range b.owner[p] {
			if b.owner[p][v] == "" && !b.dead[p][v] {
				n++
			}
		}
	}
	return n
}

// alloc claims the lowest free slot, restricted to ports accepted by ok
// (nil accepts all). Managed VMs grow from the bottom of the VF range.
func (b *slotBook) alloc(name string, ok func(port int) bool) (port, vf int, found bool) {
	for p := range b.owner {
		if ok != nil && !ok(p) {
			continue
		}
		for v := range b.owner[p] {
			if b.owner[p][v] == "" && !b.dead[p][v] {
				b.owner[p][v] = name
				return p, v, true
			}
		}
	}
	return 0, 0, false
}

// allocHigh claims the highest free slot — client endpoints grow from the
// top so they never collide with the managed fleet's churn at the bottom.
func (b *slotBook) allocHigh(name string) (port, vf int, found bool) {
	for p := len(b.owner) - 1; p >= 0; p-- {
		for v := len(b.owner[p]) - 1; v >= 0; v-- {
			if b.owner[p][v] == "" && !b.dead[p][v] {
				b.owner[p][v] = name
				return p, v, true
			}
		}
	}
	return 0, 0, false
}

func (b *slotBook) release(port, vf int)   { b.owner[port][vf] = "" }
func (b *slotBook) poison(port, vf int)    { b.owner[port][vf] = ""; b.dead[port][vf] = true }
func (b *slotBook) at(port, vf int) string { return b.owner[port][vf] }

// hasFree reports whether some free slot exists on a port accepted by ok.
func (b *slotBook) hasFree(ok func(port int) bool) bool {
	for p := range b.owner {
		if ok != nil && !ok(p) {
			continue
		}
		for v := range b.owner[p] {
			if b.owner[p][v] == "" && !b.dead[p][v] {
				return true
			}
		}
	}
	return false
}

// Controller is the reconcile loop over one cluster's fleet.
type Controller struct {
	cl  *cluster.Cluster
	cfg Config

	vms   []*VM
	slots []*slotBook
	tick  *sim.Ticker

	inFlight  int
	movesDone int
	migs      []*cluster.Migration

	reconciles *obs.Counter
	churn      *obs.Counter
	heals      *obs.Counter
	migFailed  *obs.Counter
	downtime   *obs.Hist
}

// NewController builds a controller over the cluster. The cluster's hosts
// must already exist; VMs are added with AddVM before (or while) running.
func NewController(cl *cluster.Cluster, cfg Config) *Controller {
	cfg.fill()
	c := &Controller{
		cl: cl, cfg: cfg,
		reconciles: cfg.Obs.Counter("ctl.reconciles"),
		churn:      cfg.Obs.Counter("ctl.placement_churn"),
		heals:      cfg.Obs.Counter("ctl.heals"),
		migFailed:  cfg.Obs.Counter("ctl.migration_failures"),
		downtime:   cfg.Obs.Histogram("ctl.downtime", chaos.MTTRBounds()...),
	}
	for _, h := range cl.Hosts() {
		hc := h.Bed.Config()
		c.slots = append(c.slots, newSlotBook(len(h.Bed.Ports), hc.VFsPerPort))
	}
	return c
}

// VMs reports the managed fleet in registration order.
func (c *Controller) VMs() []*VM { return c.vms }

// Migrations reports every migration the controller started, for the
// cluster-level termination audit.
func (c *Controller) Migrations() []*cluster.Migration { return c.migs }

// AddVM creates a managed DNIS guest on host (VF active, PV standby on the
// next port when the host has more than one, miimon running), connects it
// to the fabric, and registers it with the controller. Legal mid-run: the
// scenario API adds VMs to a stepping fleet.
func (c *Controller) AddVM(name string, host int, rate units.BitRate, group string) (*VM, error) {
	if host < 0 || host >= len(c.slots) {
		return nil, fmt.Errorf("ctlplane: no host %d", host)
	}
	for _, vm := range c.vms {
		if vm.Name == name {
			return nil, fmt.Errorf("ctlplane: vm %q already exists", name)
		}
	}
	h := c.cl.Host(host)
	port, vf, ok := c.slots[host].alloc(name, nil)
	if !ok {
		return nil, fmt.Errorf("ctlplane: host %d has no free VF slot for %q", host, name)
	}
	pvPort := (port + 1) % len(h.Bed.Ports)
	g, err := h.Bed.AddBondedGuestOn(name, vmm.HVM, vmm.Kernel2628, port, vf, pvPort, nil)
	if err != nil {
		c.slots[host].release(port, vf)
		return nil, err
	}
	g.Bond.StartMonitor()
	h.Connect(g)
	vm := &VM{Name: name, Guest: g, Host: host, Group: group, Rate: rate,
		mac: g.MAC, port: port, vf: vf, pvPort: pvPort}
	c.vms = append(c.vms, vm)
	return vm, nil
}

// AddClient creates an unmanaged SR-IOV endpoint on host (the traffic
// source side of a service flow), drawing its VF from the top of the slot
// range so it never contends with the managed fleet.
func (c *Controller) AddClient(name string, host int) (*core.Guest, error) {
	if host < 0 || host >= len(c.slots) {
		return nil, fmt.Errorf("ctlplane: no host %d", host)
	}
	h := c.cl.Host(host)
	port, vf, ok := c.slots[host].allocHigh("client:" + name)
	if !ok {
		return nil, fmt.Errorf("ctlplane: host %d has no free VF slot for client %q", host, name)
	}
	g, err := h.Bed.AddSRIOVGuest(name, vmm.HVM, vmm.Kernel2628, port, vf, nil)
	if err != nil {
		c.slots[host].release(port, vf)
		return nil, err
	}
	h.Connect(g)
	return g, nil
}

// Start arms the reconcile tick on the cluster's clock.
func (c *Controller) Start() {
	if c.tick != nil {
		return
	}
	c.tick = sim.NewTicker(c.cl.Eng, c.cfg.ReconcilePeriod, "ctl:reconcile",
		func(units.Time) { c.Reconcile() })
}

// Stop disarms the reconcile tick. In-flight migrations keep running to
// completion (the termination invariant demands it).
func (c *Controller) Stop() {
	if c.tick != nil {
		c.tick.Stop()
		c.tick = nil
	}
}

// Reconcile runs one control-loop pass: heal what only the control plane
// can heal, then plan and execute rebalancing moves under the budgets. It
// is the tick body, exported so tests and the scenario API can single-step.
func (c *Controller) Reconcile() {
	c.reconciles.Inc()
	if c.cfg.Heal {
		for _, vm := range c.vms {
			if c.needsHeal(vm) {
				c.heal(vm)
			}
		}
	}
	if c.cfg.Policy == nil {
		return
	}
	for _, m := range c.cfg.Policy.Plan(c.snapshot()) {
		if c.inFlight >= c.cfg.MaxConcurrent {
			break
		}
		if c.cfg.MoveBudget > 0 && c.movesDone+c.inFlight >= c.cfg.MoveBudget {
			break
		}
		c.move(c.vms[m.VM], m.To)
	}
}

// snapshot builds the policy's fleet view in deterministic order.
func (c *Controller) snapshot() *FleetState {
	s := &FleetState{}
	for i, h := range c.cl.Hosts() {
		hc := h.Bed.Config()
		s.Hosts = append(s.Hosts, HostState{
			Free: c.slots[i].free(),
			Cap:  units.BitRate(len(h.Bed.Ports)) * hc.PortRate,
		})
	}
	for _, vm := range c.vms {
		s.Hosts[vm.Host].VMs++
		s.Hosts[vm.Host].Load += vm.Rate
		g := vm.Guest
		movable := !vm.migrating && g.Bond != nil && g.Bond.VF() != nil && g.Bond.VF().Attached()
		s.VMs = append(s.VMs, VMState{
			Host: vm.Host, Group: vm.Group, Rate: vm.Rate, Movable: movable,
		})
	}
	return s
}

// needsHeal reports whether the VM's datapath is in a state the driver
// watchdog cannot repair: no VF at all (aborted migration, degraded DNIS
// target), a surprise-removed function, or a VF stranded on a dead link.
// Transient faults — queue stalls, mailbox windows, device resets — are the
// watchdog's job and never trigger a heal.
func (c *Controller) needsHeal(vm *VM) bool {
	if vm.migrating {
		return false
	}
	g := vm.Guest
	vf := g.VF
	if g.Bond != nil {
		vf = g.Bond.VF()
	}
	if vf == nil || !vf.Attached() {
		return true
	}
	if !vf.Queue().Function().Config().Present() {
		return true
	}
	return !g.Port.LinkUp()
}

// heal replaces the VM's VF with a fresh function through the hot-plug
// path: detach and unassign the dead one (its slot is poisoned, never
// reused), attach a new VF on a live port, and activate it in the bond —
// creating the bond first for degraded migration targets that never got
// one. A heal that cannot find a live slot is skipped; the next tick
// retries.
func (c *Controller) heal(vm *VM) {
	h := c.cl.Host(vm.Host)
	book := c.slots[vm.Host]
	port, vf, ok := book.alloc(vm.Name, func(p int) bool { return h.Bed.Ports[p].LinkUp() })
	if !ok {
		return
	}
	g := vm.Guest
	old := g.VF
	if g.Bond != nil {
		if bvf := g.Bond.VF(); bvf != nil {
			old = bvf
		}
		g.Bond.DetachVF()
	}
	if old != nil {
		fn := old.Queue().Function()
		old.Detach() // safe twice; no-op if the migration already detached it
		h.Bed.HV.UnassignDevice(g.Dom, fn)
	}
	if vm.port >= 0 {
		book.poison(vm.port, vm.vf)
	}
	nvf, err := h.Bed.ReattachVF(g, port, vf, vm.policy)
	if err != nil {
		// The fresh function refused to attach (mid-reset). Give the slot
		// back and retry on a later tick.
		book.release(port, vf)
		return
	}
	if g.Bond == nil {
		g.Bond = drivers.NewBond(h.Bed.HV, g.Dom, nvf, g.PV, h.Bed.Ports[vm.pvPort])
	} else {
		g.Bond.ActivateVF(nvf)
	}
	if !g.Bond.Monitoring() {
		g.Bond.StartMonitor()
	}
	vm.port, vm.vf = port, vf
	c.heals.Inc()
}

// move live-migrates the VM to host `to` with DNIS. The destination slot is
// claimed up front; a refused or aborted migration releases it and leaves
// the VM where it was (PV-only — the hot removal already happened — so the
// heal loop re-arms its VF).
func (c *Controller) move(vm *VM, to int) {
	if vm.migrating || to == vm.Host || to < 0 || to >= len(c.slots) {
		return
	}
	dstBook := c.slots[to]
	port, vf, ok := dstBook.alloc(vm.Name, nil)
	if !ok {
		return
	}
	src, dst := c.cl.Host(vm.Host), c.cl.Host(to)
	oldHost, oldPort, oldVF := vm.Host, vm.port, vm.vf
	oldGuest := vm.Guest
	gen := vm.gen + 1
	vm.migrating = true
	c.inFlight++
	var mig *cluster.Migration
	m, err := c.cl.MigrateDNIS(cluster.MigrationSpec{
		Src: src, Guest: oldGuest, Dst: dst,
		DstPort: port, DstVF: vf, Policy: vm.policy,
		TargetName: fmt.Sprintf("%s-m%d", vm.Name, gen),
	}, func(r *migration.Result) {
		c.inFlight--
		vm.migrating = false
		if oldPort >= 0 {
			// The source VF detached at hot removal either way; its slot is
			// clean and reusable.
			c.slots[oldHost].release(oldPort, oldVF)
		}
		if r.Err != nil {
			c.migFailed.Inc()
			dstBook.release(port, vf)
			// The guest still runs at the source, PV-only.
			vm.port, vm.vf = -1, -1
			return
		}
		oldGuest.Bond.StopMonitor()
		vm.accumPkts += oldGuest.Recv.Stats.AppPackets
		vm.Guest = mig.Target
		vm.Host = to
		vm.port, vm.vf = port, vf
		vm.pvPort = port // AddPVGuest put the standby on DstPort
		vm.gen = gen
		c.movesDone++
		c.churn.Inc()
		c.downtime.Observe(r.Downtime())
		if b := mig.Target.Bond; b != nil {
			b.StartMonitor()
		}
		// A degraded completion (hot-add failed, Bond nil) is the heal
		// loop's problem now; the claimed slot stands until it succeeds.
	})
	if err != nil {
		// Refused up front (no in-flight state): undo the claim.
		c.inFlight--
		vm.migrating = false
		dstBook.release(port, vf)
		c.migFailed.Inc()
		return
	}
	mig = m
	c.migs = append(c.migs, m)
}

// RecordHeadline folds the controller's downtime distribution into the
// headline counter ctl.p99_downtime_us, which the suite's merged metrics
// (suite_metrics.json) carry.
func (c *Controller) RecordHeadline() {
	c.cfg.Obs.Counter("ctl.p99_downtime_us").Add(int64(c.downtime.Quantile(0.99) / units.Microsecond))
}

// Audit checks the controller's own invariants — the control-plane layer
// of the chaos audit:
//
//   - vm-single-placement: every managed VM's service MAC is claimed by
//     exactly the host the controller's books place it on.
//   - orphaned-vf: every attached managed VF sits on exactly the slot its
//     book entry records, and every booked slot has a live owner.
//   - reconcile-termination: no migration is still in flight, and (when
//     healing) no VM still needs a heal that a free live slot could serve.
//
// Call it after the cluster audit has settled the engine.
func (c *Controller) Audit() []chaos.Violation {
	var vs []chaos.Violation
	for _, vm := range c.vms {
		claims := 0
		for i, h := range c.cl.Hosts() {
			if h.Claims(vm.mac) {
				claims++
				if i != vm.Host {
					vs = append(vs, chaos.Violation{Invariant: "vm-single-placement", Where: vm.Name,
						Detail: fmt.Sprintf("MAC claimed on host %d but placed on host %d", i, vm.Host)})
				}
			}
		}
		if claims != 1 {
			vs = append(vs, chaos.Violation{Invariant: "vm-single-placement", Where: vm.Name,
				Detail: fmt.Sprintf("service MAC claimed by %d hosts, want 1", claims)})
		}
		g := vm.Guest
		vf := g.VF
		if g.Bond != nil && g.Bond.VF() != nil {
			vf = g.Bond.VF()
		}
		if vf != nil && vf.Attached() {
			if vm.port < 0 {
				vs = append(vs, chaos.Violation{Invariant: "orphaned-vf", Where: vm.Name,
					Detail: "VF attached but no slot booked"})
			} else if got := c.slots[vm.Host].at(vm.port, vm.vf); got != vm.Name {
				vs = append(vs, chaos.Violation{Invariant: "orphaned-vf", Where: vm.Name,
					Detail: fmt.Sprintf("slot %d/%d booked to %q", vm.port, vm.vf, got)})
			}
		}
	}
	// Every booked managed slot must belong to a registered VM that is
	// really there; a stale entry is a leaked VF.
	names := make(map[string]*VM, len(c.vms))
	for _, vm := range c.vms {
		names[vm.Name] = vm
	}
	for hIdx, book := range c.slots {
		for p := range book.owner {
			for v, owner := range book.owner[p] {
				if owner == "" || len(owner) > 7 && owner[:7] == "client:" {
					continue
				}
				vm, ok := names[owner]
				if !ok || vm.Host != hIdx || vm.port != p || vm.vf != v {
					vs = append(vs, chaos.Violation{Invariant: "orphaned-vf",
						Where:  fmt.Sprintf("h%d:port%d/vf%d", hIdx, p, v),
						Detail: fmt.Sprintf("slot booked to %q but no VM is placed there", owner)})
				}
			}
		}
	}
	if c.inFlight != 0 {
		vs = append(vs, chaos.Violation{Invariant: "reconcile-termination", Where: "controller",
			Detail: fmt.Sprintf("%d migrations still in flight after settle", c.inFlight)})
	}
	if c.cfg.Heal {
		for _, vm := range c.vms {
			if !c.needsHeal(vm) {
				continue
			}
			h := c.cl.Host(vm.Host)
			if c.slots[vm.Host].hasFree(func(p int) bool { return h.Bed.Ports[p].LinkUp() }) {
				vs = append(vs, chaos.Violation{Invariant: "reconcile-termination", Where: vm.Name,
					Detail: "VM still needs a heal a free live slot could serve"})
			}
		}
	}
	return vs
}
