package ctlplane

import (
	"encoding/json"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Report is the committed run summary the scenario server returns and the
// deterministic-replay tests byte-compare. Every field is a pure function
// of (scenario, seed).
type Report struct {
	Schema   int    `json:"schema"`
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Policy   string `json:"policy"`

	PlacementChurn   int64 `json:"placement_churn"`
	Heals            int64 `json:"heals"`
	Migrations       int   `json:"migrations"`
	FailedMigrations int64 `json:"failed_migrations"`
	DowntimeP50Us    int64 `json:"downtime_p50_us"`
	DowntimeP99Us    int64 `json:"downtime_p99_us"`

	GoodputMbps  int64   `json:"goodput_mbps"`
	Availability float64 `json:"availability"`
	Recoveries   int64   `json:"recoveries"`
	Unrecovered  int64   `json:"unrecovered"`

	Placements []Placement `json:"placements"`
	Violations []string    `json:"violations"`
}

// Placement is one VM's final placement.
type Placement struct {
	VM        string `json:"vm"`
	Host      int    `json:"host"`
	Gen       int    `json:"gen"` // completed migrations behind it
	Delivered int64  `json:"delivered_pkts"`
	// OnVF reports whether the VM ended the run serving on its fast path
	// (bond active on an attached VF) rather than the PV standby.
	OnVF bool `json:"on_vf"`
}

// Encode renders the report's canonical byte form (indented JSON, trailing
// newline) — the unit of byte-identical replay.
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ctlplane: report: %w", err)
	}
	return append(data, '\n'), nil
}

// Run is one scenario brought to life: a cluster, a controller over it,
// the scenario's VMs with their client flows, fault injectors armed per
// host, and an SLO probe on the fleet's aggregate delivery. The scenario
// server steps it; RunScenario drives it to the horizon in one call.
type Run struct {
	Scenario *Scenario // filled copy
	Seed     uint64

	cl   *cluster.Cluster
	ctl  *Controller
	reg  *obs.Registry
	injs []*fault.Injector
	slo  *chaos.SLO

	nominalPPS float64
	warmEnd    units.Time
	horizon    units.Time
	warmSnap   map[string]int64 // delivered at warmup end, per VM
	report     *Report
}

// NewRun validates and instantiates the scenario. seed 0 uses the
// scenario's own; reg nil gets a private registry; arena may be nil.
func NewRun(sc *Scenario, seed uint64, reg *obs.Registry, arena *sim.Arena) (*Run, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	filled := *sc
	filled.fill()
	if seed == 0 {
		seed = filled.Seed
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	pol, err := ParsePolicy(filled.Policy)
	if err != nil {
		return nil, err
	}

	cl := cluster.New(cluster.Config{
		Hosts: filled.Hosts, PortsPerHost: filled.PortsPerHost,
		Seed: seed, Obs: reg, Arena: arena,
		Host: core.Config{
			Opts: vmm.AllOptimizations, NetbackThreads: 2,
			VFsPerPort:  filled.VFsPerPort,
			GuestMemory: units.Size(filled.GuestMemoryMiB) * units.MiB,
		},
	})
	ctl := NewController(cl, Config{
		ReconcilePeriod: ms(filled.ReconcileMs),
		Heal:            filled.Heal,
		Policy:          pol,
		MaxConcurrent:   filled.MaxConcurrentMigrations,
		MoveBudget:      filled.MoveBudget,
		Obs:             reg,
	})

	r := &Run{
		Scenario: &filled, Seed: seed,
		cl: cl, ctl: ctl, reg: reg,
		warmEnd:  units.Time(ms(filled.WarmupMs)),
		horizon:  units.Time(ms(filled.WarmupMs + filled.RunMs)),
		warmSnap: make(map[string]int64),
	}
	for _, h := range cl.Hosts() {
		inj := fault.NewInjector(cl.Eng, nil)
		for i, p := range h.Bed.Ports {
			inj.Watch(p, h.Bed.PFs[i])
		}
		r.injs = append(r.injs, inj)
	}
	for _, vm := range filled.VMs {
		if err := r.addVM(vm); err != nil {
			return nil, err
		}
	}
	for i, f := range filled.Faults {
		if err := r.scheduleFault(f); err != nil {
			return nil, fmt.Errorf("ctlplane: faults[%d]: %w", i, err)
		}
	}
	// The SLO probes the whole fleet's delivery; a healthy bucket needs the
	// scenario's healthy fraction of the initial nominal rate.
	r.slo = chaos.NewSLO(cl.Eng, reg, r.nominalPPS, func() int64 {
		var n int64
		for _, vm := range ctl.VMs() {
			n += vm.Delivered()
		}
		return n
	})
	r.slo.SetHealthyFraction(filled.HealthyFraction)
	for _, inj := range r.injs {
		r.slo.Attach(inj)
	}
	// Snapshot per-VM delivery at warmup end: the goodput figure measures
	// the window after it, so controller moves during warmup are free.
	cl.Eng.At(r.warmEnd, "ctl:warm-snap", func() {
		for _, vm := range ctl.VMs() {
			r.warmSnap[vm.Name] = vm.Delivered()
		}
	})
	ctl.Start()
	return r, nil
}

// addVM builds one managed VM, its client endpoint and the client→VM flow.
func (r *Run) addVM(spec VMSpec) error {
	vm, err := r.ctl.AddVM(spec.Name, spec.Host, units.BitRate(spec.RateMbps)*units.Mbps, spec.Group)
	if err != nil {
		return err
	}
	clientHost := (spec.Host + 1) % len(r.cl.Hosts())
	if spec.ClientHost != nil {
		clientHost = *spec.ClientHost
	}
	client, err := r.ctl.AddClient("c-"+spec.Name, clientHost)
	if err != nil {
		return err
	}
	if _, err := r.cl.StartFlow(r.cl.Host(clientHost), client, r.cl.Host(spec.Host), vm.Guest, vm.Rate); err != nil {
		return err
	}
	r.nominalPPS += model.PacketsPerSecond(vm.Rate, model.FrameSize)
	return nil
}

// AddVM registers a VM (plus client and flow) into a running fleet — the
// scenario API's mid-run mutation. Call between steps.
func (r *Run) AddVM(spec VMSpec) error {
	if r.report != nil {
		return fmt.Errorf("ctlplane: run already finished")
	}
	if spec.Name == "" || spec.RateMbps <= 0 {
		return fmt.Errorf("ctlplane: vm needs a name and a positive rate_mbps")
	}
	if spec.Host < 0 || spec.Host >= len(r.cl.Hosts()) {
		return fmt.Errorf("ctlplane: no host %d", spec.Host)
	}
	if spec.ClientHost != nil && (*spec.ClientHost < 0 || *spec.ClientHost >= len(r.cl.Hosts())) {
		return fmt.Errorf("ctlplane: no host %d", *spec.ClientHost)
	}
	return r.addVM(spec)
}

// scheduleFault arms one fault. The spec is resolved at fire time, so a
// VM-targeted fault chases the VM to wherever the controller moved it.
func (r *Run) scheduleFault(f FaultSpec) error {
	kind, err := ParseFaultKind(f.Kind)
	if err != nil {
		return err
	}
	if f.Host < 0 || f.Host >= len(r.injs) {
		return fmt.Errorf("ctlplane: no host %d", f.Host)
	}
	at := units.Time(ms(f.AtMs))
	if now := r.cl.Eng.Now(); at < now {
		at = now // mid-run injections land on the next instant
	}
	r.cl.Eng.At(at, "ctl:fault", func() { r.applyFault(kind, f) })
	return nil
}

// InjectFault arms a fault against a running fleet — the scenario API's
// mid-run mutation. Times in the past fire immediately on the next step.
func (r *Run) InjectFault(f FaultSpec) error {
	if r.report != nil {
		return fmt.Errorf("ctlplane: run already finished")
	}
	if f.VM != "" && r.findVM(f.VM) == nil {
		return fmt.Errorf("ctlplane: unknown vm %q", f.VM)
	}
	return r.scheduleFault(f)
}

func (r *Run) findVM(name string) *VM {
	for _, vm := range r.ctl.VMs() {
		if vm.Name == name {
			return vm
		}
	}
	return nil
}

// applyFault resolves the target and injects through the host's injector.
func (r *Run) applyFault(kind fault.Kind, f FaultSpec) {
	host, port, vf := f.Host, f.Port, f.VF
	if f.VM != "" {
		vm := r.findVM(f.VM)
		if vm == nil {
			return
		}
		host = vm.Host
		port, vf = vm.Slot()
		if port < 0 {
			return // PV-only right now; nothing to break
		}
	}
	s := fault.Scenario{
		At: r.cl.Eng.Now(), Kind: kind, Port: port, VF: vf,
		Duration: ms(f.DurationMs), Delay: ms(f.DelayMs),
	}
	if err := r.injs[host].Schedule(s); err != nil {
		// Validation already bounded static specs; a chase to a weird slot
		// is counted, not fatal.
		r.reg.Counter("ctl.fault_schedule_errors").Inc()
	}
}

// Step advances the simulation by d. No-op once finished.
func (r *Run) Step(d units.Duration) {
	if r.report != nil {
		return
	}
	r.cl.Eng.RunUntil(r.cl.Eng.Now().Add(d))
}

// Now reports the simulated clock.
func (r *Run) Now() units.Duration { return units.Duration(r.cl.Eng.Now()) }

// Done reports whether the clock has reached the scenario horizon.
func (r *Run) Done() bool { return r.cl.Eng.Now() >= r.horizon || r.report != nil }

// Remaining reports the simulated time left to the horizon.
func (r *Run) Remaining() units.Duration {
	if now := r.cl.Eng.Now(); now < r.horizon {
		return r.horizon.Sub(now)
	}
	return 0
}

// Cluster exposes the fabric under the run.
func (r *Run) Cluster() *cluster.Cluster { return r.cl }

// Finish closes the run: measure goodput over [warmup end, now], stop the
// workload, settle and audit (cluster invariants, migration termination,
// controller books — the reconcile loop keeps running through the audit's
// recovery window so late heals land), and freeze the report. Idempotent.
func (r *Run) Finish() *Report {
	if r.report != nil {
		return r.report
	}
	now := r.cl.Eng.Now()
	// Goodput over the measured window, from the fleet's delivered-packet
	// deltas. Testbed.Measure can't serve here: migration targets are born
	// mid-window and their packets must count toward their VM's service.
	var goodput units.BitRate
	if window := now.Sub(r.warmEnd); window > 0 {
		var pkts int64
		for _, vm := range r.ctl.VMs() {
			pkts += vm.Delivered() - r.warmSnap[vm.Name]
		}
		goodput = units.BitRate(float64(pkts) * float64(model.FrameSize) * 8 / window.Seconds())
	}
	r.cl.StopAll()
	slo := r.slo.Finish()
	// The cluster audit advances time (settle + recovery bound) with the
	// reconcile tick still armed: a controller that heals on its tick gets
	// the same grace the driver watchdog gets.
	vs := chaos.AuditCluster(r.cl, r.ctl.Migrations())
	r.ctl.Stop()
	vs = append(vs, r.ctl.Audit()...)
	chaos.Record(r.reg, vs)
	r.ctl.RecordHeadline()

	rep := &Report{
		Schema:   SchemaVersion,
		Scenario: r.Scenario.Name,
		Seed:     r.Seed,
		Policy:   r.Scenario.Policy,

		PlacementChurn:   r.reg.Counter("ctl.placement_churn").Value(),
		Heals:            r.reg.Counter("ctl.heals").Value(),
		Migrations:       len(r.ctl.Migrations()),
		FailedMigrations: r.reg.Counter("ctl.migration_failures").Value(),
		DowntimeP50Us:    int64(r.ctl.downtime.Quantile(0.50) / units.Microsecond),
		DowntimeP99Us:    int64(r.ctl.downtime.Quantile(0.99) / units.Microsecond),

		GoodputMbps:  int64(goodput / units.Mbps),
		Availability: slo.Availability,
		Recoveries:   slo.Recoveries,
		Unrecovered:  slo.Unrecovered,

		Placements: []Placement{},
		Violations: []string{},
	}
	for _, vm := range r.ctl.VMs() {
		rep.Placements = append(rep.Placements, Placement{
			VM: vm.Name, Host: vm.Host, Gen: vm.Gen(), Delivered: vm.Delivered(),
			OnVF: vm.Guest.Bond != nil && vm.Guest.Bond.ActiveVF(),
		})
	}
	for _, v := range vs {
		rep.Violations = append(rep.Violations, v.String())
	}
	r.report = rep
	return rep
}

// RunScenario executes the scenario start to finish and returns its
// report: the one-call in-process API, and the replay unit the determinism
// tests assert on.
func RunScenario(sc *Scenario, seed uint64, reg *obs.Registry, arena *sim.Arena) (*Report, error) {
	r, err := NewRun(sc, seed, reg, arena)
	if err != nil {
		return nil, err
	}
	r.Step(r.Remaining())
	return r.Finish(), nil
}
