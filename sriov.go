// Package sriov is the public API of the SR-IOV network-virtualization
// simulator, a full reproduction of Dong et al., "High Performance Network
// Virtualization with SR-IOV" (HPCA 2010; extended in JPDC 72(9), 2012).
//
// The package assembles the paper's testbed — a 16-thread 2.8 GHz server
// running a Xen-like hypervisor, ten SR-IOV-capable 1 GbE ports on a PCIe
// fabric behind a VT-d IOMMU — and exposes the building blocks the paper
// describes: VF/PF drivers with the §5 interrupt-path optimizations, the PV
// split-driver and VMDq baselines, and DNIS live migration.
//
// Quick start:
//
//	tb := sriov.NewTestbed(sriov.Config{Ports: 1, Opts: sriov.AllOptimizations})
//	g, _ := tb.AddSRIOVGuest("guest-1", sriov.HVM, sriov.Kernel2628, 0, 0, sriov.DefaultAIC())
//	tb.StartUDP(g, sriov.LineRateUDP)
//	util, results := tb.Measure(sriov.Warmup, sriov.Window)
//	fmt.Printf("goodput %v at %.1f%% CPU\n", results[g].Goodput, util.Total)
//
// Every table and figure of the paper's evaluation can be regenerated
// through RunExperiment / Experiments; see EXPERIMENTS.md for the measured
// vs. reported comparison.
package sriov

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/drivers"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/migration"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// Re-exported core types: the testbed and its construction.
type (
	// Config parameterizes a Testbed.
	Config = core.Config
	// Testbed is the simulated server machine.
	Testbed = core.Testbed
	// Guest bundles one VM with its network plumbing.
	Guest = core.Guest
	// Utilization is a per-domain CPU breakdown, in percent-of-one-thread.
	Utilization = core.Utilization
	// MeasureResult is one guest's goodput measurement.
	MeasureResult = workload.Result
)

// NewTestbed builds a simulated server.
func NewTestbed(cfg Config) *Testbed { return core.NewTestbed(cfg) }

// AggregateGoodput sums goodput across a measurement's results.
func AggregateGoodput(results map[*Guest]MeasureResult) BitRate {
	return core.AggregateGoodput(results)
}

// Domain flavours and kernels.
type (
	// DomainType distinguishes HVM, PVM, dom0 and native.
	DomainType = vmm.DomainType
	// KernelConfig captures guest-kernel behaviour (MSI masking).
	KernelConfig = vmm.KernelConfig
	// Optimizations are the §5 hypervisor switches.
	Optimizations = vmm.Optimizations
	// Domain is one VM.
	Domain = vmm.Domain
)

// Domain type values.
const (
	Dom0   = vmm.Dom0
	HVM    = vmm.HVM
	PVM    = vmm.PVM
	Native = vmm.Native
)

// Flavor selects the VMM personality: the architecture is VMM-agnostic
// (§4), so the same drivers run on either.
type Flavor = vmm.Flavor

// Flavors.
const (
	Xen = vmm.Xen
	KVM = vmm.KVM
)

// Kernel presets: RHEL5's 2.6.18 masks/unmasks MSI around every interrupt
// (the §5.1 pathology); 2.6.28 does not.
var (
	KernelRHEL5 = vmm.KernelRHEL5
	Kernel2628  = vmm.Kernel2628
)

// AllOptimizations enables MSI mask acceleration and EOI acceleration.
var AllOptimizations = vmm.AllOptimizations

// Interrupt-coalescing policies (§5.3).
type ITRPolicy = netstack.ITRPolicy

// FixedITR interrupts at a constant rate; DynamicITR is IGB-style
// moderation; AIC is the paper's adaptive overflow-avoidance policy.
type (
	FixedITR   = netstack.FixedITR
	DynamicITR = netstack.DynamicITR
	AIC        = netstack.AIC
)

// DefaultAIC returns AIC with the paper's parameters (bufs=64, r=1.2).
func DefaultAIC() AIC { return netstack.DefaultAIC() }

// DefaultDynamicITR returns the IGB-style dynamic moderation profile.
func DefaultDynamicITR() DynamicITR { return netstack.DefaultDynamicITR() }

// Units.
type (
	// BitRate is bits per second.
	BitRate = units.BitRate
	// Duration is simulated nanoseconds.
	Duration = units.Duration
	// Time is a point in simulated time.
	Time = units.Time
	// Size is bytes.
	Size = units.Size
)

// Common rates and windows.
const (
	Mbps = units.Mbps
	Gbps = units.Gbps

	Millisecond = units.Millisecond
	Second      = units.Second

	// LineRateUDP is the per-port netperf UDP goodput (957 Mbps).
	LineRateUDP = model.LineRateUDP
	// LineRateTCP is the per-port TCP goodput (940 Mbps).
	LineRateTCP = model.LineRateTCP

	// Warmup and Window are sensible defaults for Measure.
	Warmup = 300 * units.Millisecond
	Window = units.Second
)

// Migration.
type (
	// MigrationConfig parameterizes live migration.
	MigrationConfig = migration.Config
	// MigrationManager runs migrations on a testbed's hypervisor.
	MigrationManager = migration.Manager
	// MigrationResult describes a completed migration.
	MigrationResult = migration.Result
	// VFDriver is a guest's virtual-function driver instance.
	VFDriver = drivers.VFDriver
	// Bond is the DNIS active-backup bonding driver.
	Bond = drivers.Bond
)

// NewMigrationManager creates a migration manager on the testbed.
func NewMigrationManager(tb *Testbed, cfg MigrationConfig) *MigrationManager {
	return migration.NewManager(tb.HV, cfg)
}

// DefaultMigrationConfig returns the paper-calibrated migration parameters.
func DefaultMigrationConfig() MigrationConfig { return migration.DefaultConfig() }

// Cluster fabric: N testbeds behind a simulated top-of-rack switch, with
// cross-host flows and inter-host DNIS live migration.
type (
	// ClusterConfig parameterizes a Cluster.
	ClusterConfig = cluster.Config
	// Cluster is N hosts behind one ToR switch on a shared clock.
	Cluster = cluster.Cluster
	// ClusterHost is one server of a cluster: a Testbed plus its fabric
	// attachment.
	ClusterHost = cluster.Host
	// LinkConfig shapes one fabric link (rate, latency, queue bound).
	LinkConfig = cluster.LinkConfig
	// ClusterFlow is one cross-host netperf-style stream.
	ClusterFlow = cluster.Flow
	// ClusterMigrationSpec describes one inter-host DNIS migration.
	ClusterMigrationSpec = cluster.MigrationSpec
	// ClusterMigration tracks an in-flight or finished inter-host migration.
	ClusterMigration = cluster.Migration
	// HostMeasure is one host's share of a cluster measurement.
	HostMeasure = cluster.HostMeasure
)

// NewCluster assembles hosts behind a ToR switch on one event clock.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// Leaf–spine Clos fabric: the multi-tier scale-out of the single ToR, with
// per-flow ECMP over the spines and a flow-level fluid fast-path that lets
// steady-state flows skip per-packet events (fig30/fig31).
type (
	// ClosTopology describes a leaf–spine fabric shape.
	ClosTopology = cluster.Topology
	// ClosConfig parameterizes a Clos fabric instance.
	ClosConfig = cluster.ClosConfig
	// Clos is the fabric: leaf/spine switches, ECMP routing, fast-path.
	Clos = cluster.Clos
	// ClosFlow is one flow across the fabric.
	ClosFlow = cluster.ClosFlow
	// FastpathMode selects how the flow-level fast-path engages.
	FastpathMode = cluster.FastpathMode
	// ClosSoakResult summarizes one fabric-soak iteration.
	ClosSoakResult = experiments.ClosSoakResult
)

// Fast-path modes.
const (
	FastpathAuto = cluster.FastpathAuto
	FastpathOn   = cluster.FastpathOn
	FastpathOff  = cluster.FastpathOff
)

// NewClos assembles a leaf–spine Clos fabric.
func NewClos(cfg ClosConfig) (*Clos, error) { return cluster.NewClos(cfg) }

// ParseFastpathMode parses the -fastpath flag values (auto|on|off).
func ParseFastpathMode(s string) (FastpathMode, error) { return cluster.ParseFastpathMode(s) }

// ClosRingExperiment builds a fig31-style single-host-count Clos ring —
// what `sriovsim -clos` runs. Its figures are byte-identical whichever
// fast-path mode runs them; that equality is the packet≡flow gate.
func ClosRingExperiment(hosts, vms int, mode FastpathMode) Experiment {
	return experiments.ClosRingSpec(hosts, vms, mode)
}

// ClosSoak runs one randomized fabric iteration (the Clos leg of `sriovsim
// -soak`): a random leaf–spine shape and flow mix in auto fast-path mode
// with trunk flaps, then the full fabric audit. Deterministic per seed.
func ClosSoak(seed uint64) ClosSoakResult { return experiments.ClosSoak(seed) }

// ClusterScaleExperiment builds a fig22-style scale-out sweep for a custom
// host count and link shape — what `sriovsim -hosts/-links` runs.
func ClusterScaleExperiment(hosts int, link LinkConfig) Experiment {
	return experiments.ClusterScaleSpec(hosts, link)
}

// Fault injection: deterministic robustness scenarios against the testbed.
type (
	// FaultInjector schedules faults as ordinary simulation events.
	FaultInjector = fault.Injector
	// FaultScenario is one scheduled fault.
	FaultScenario = fault.Scenario
	// FaultKind enumerates the injectable fault types.
	FaultKind = fault.Kind
	// TraceBuffer is a trace sink: a ring of timestamped control-plane
	// events and a ring of packet spans.
	TraceBuffer = obs.Trace
)

// Fault kinds.
const (
	LinkFlap         = fault.LinkFlap
	MailboxDrop      = fault.MailboxDrop
	MailboxDelay     = fault.MailboxDelay
	QueueStall       = fault.QueueStall
	DeviceReset      = fault.DeviceReset
	SurpriseRemoveVF = fault.SurpriseRemoveVF
)

// NewFaultInjector creates an injector watching every port of the testbed;
// FaultScenario.Port indexes the testbed's ports. tracer may be nil — pass
// the same trace to Testbed.SetTracer to interleave injections with the
// device- and driver-side recovery events.
func NewFaultInjector(tb *Testbed, tracer *TraceBuffer) *FaultInjector {
	in := fault.NewInjector(tb.Eng, tracer)
	for i := range tb.Ports {
		in.Watch(tb.Ports[i], tb.PFs[i])
	}
	return in
}

// NewTrace creates a trace holding the most recent capacity events. It
// keeps no packet spans, so a filtered event log stays cheap.
func NewTrace(capacity int) *TraceBuffer { return obs.NewTrace(capacity, 0) }

// Chaos: seeded randomized fault campaigns and system-wide invariant audits.
type (
	// ChaosConfig parameterizes one randomized fault campaign.
	ChaosConfig = chaos.Config
	// ChaosViolation is one failed system invariant.
	ChaosViolation = chaos.Violation
	// ChaosSLO tracks recovery service levels during a campaign.
	ChaosSLO = chaos.SLO
	// ChaosSoakResult summarizes one chaos-soak iteration.
	ChaosSoakResult = experiments.SoakResult
)

// ChaosPlan draws a campaign schedule — deterministic per (engine seed,
// config). Arm the result with ChaosArm.
func ChaosPlan(tb *Testbed, cfg ChaosConfig) []FaultScenario { return chaos.Plan(tb.Eng, cfg) }

// ChaosArm schedules a planned campaign on the injector.
func ChaosArm(inj *FaultInjector, plan []FaultScenario) error { return chaos.Arm(inj, plan) }

// AuditInvariants settles the testbed and checks every system-wide
// invariant: packet conservation per layer, interrupt and watchdog
// liveness, and event-pool integrity. Empty means healthy.
func AuditInvariants(tb *Testbed) []ChaosViolation { return chaos.AuditTestbed(tb) }

// ChaosSoak runs one randomized chaos-soak iteration (what `sriovsim
// -soak` loops): a storm of every fault kind plus correlated presets,
// then the invariant audit. Deterministic per seed.
func ChaosSoak(seed uint64) ChaosSoakResult { return experiments.ChaosSoak(seed) }

// Control plane: fleet-level VF management above the cluster fabric — a
// reconciler that places VMs under pluggable policies, heals them through
// faults via rebond/re-slot/DNIS migration, and reports placements with an
// audited book of record. Scenarios are a committed JSON schema
// (CtlSchemaJSON); the same scenario+seed pair replays byte-identically,
// in process or over the REST server.
type (
	// CtlScenario is a declarative control-plane scenario (fleet shape,
	// policy, VMs, fault schedule).
	CtlScenario = ctlplane.Scenario
	// CtlVMSpec describes one VM of a scenario.
	CtlVMSpec = ctlplane.VMSpec
	// CtlFaultSpec schedules one fault of a scenario.
	CtlFaultSpec = ctlplane.FaultSpec
	// CtlReport is a finished run's canonical JSON report.
	CtlReport = ctlplane.Report
	// CtlRun is a stepwise control-plane run accepting mid-run mutation.
	CtlRun = ctlplane.Run
	// CtlServer is the REST/JSON scenario server (`sriovsim -serve`).
	CtlServer = ctlplane.Server
	// CtlSoakResult summarizes one controller-soak iteration.
	CtlSoakResult = experiments.CtlSoakResult
)

// CtlSchemaJSON is the committed JSON-Schema document for CtlScenario.
var CtlSchemaJSON = ctlplane.SchemaJSON

// DecodeCtlScenario parses and validates a scenario JSON document.
func DecodeCtlScenario(data []byte) (*CtlScenario, error) { return ctlplane.DecodeScenario(data) }

// EncodeCtlScenario renders a scenario in its canonical encoding.
func EncodeCtlScenario(sc *CtlScenario) ([]byte, error) { return ctlplane.EncodeScenario(sc) }

// RunCtlScenario drives a scenario to its horizon and returns the report.
// Deterministic per (scenario, seed): the report's Encode() bytes are
// identical across runs, runner parallelism, and the REST server.
func RunCtlScenario(sc *CtlScenario, seed uint64) (*CtlReport, error) {
	return ctlplane.RunScenario(sc, seed, nil, nil)
}

// NewCtlServer creates the REST/JSON scenario server; mount Handler().
func NewCtlServer() *CtlServer { return ctlplane.NewServer() }

// CtlSoak runs one controller chaos iteration (the control-plane leg of
// `sriovsim -soak`): a healing spread fleet under a mixed fault schedule,
// then the cluster audit plus the controller-state audit. Deterministic
// per seed.
func CtlSoak(seed uint64) CtlSoakResult { return experiments.CtlSoak(seed) }

// Experiments.
type (
	// Experiment is one reproducible paper figure.
	Experiment = experiments.Spec
	// Figure is an experiment's result: measured series, paper reference
	// values, and shape checks.
	Figure = report.Figure
)

// Experiments lists every reproduced figure, sorted by id.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment reproduces one figure by id ("fig06" ... "fig31", "faults",
// "ext10g", "extrr"; see Experiments).
func RunExperiment(id string) (*Figure, error) {
	s, err := experiments.ByID(id)
	if err != nil {
		return nil, fmt.Errorf("sriov: %w", err)
	}
	return s.Run(), nil
}

// DatapathBackends lists the pluggable datapath backend kinds the NFV
// figures (fig26/fig27) compare head to head: "vf" (SR-IOV), "pv"
// (netback/netfront), "vhost" (dom0 poll-mode), "ovs" (flow-cache
// switch), and "swpass" (software passthrough).
func DatapathBackends() []string { return experiments.NFVBackends() }

// NFVExperiments returns the fig26/fig27 NFV head-to-head figures
// restricted to the named backend kinds (see DatapathBackends) — what
// `sriovsim -backend` runs. The restricted specs reuse the full sweep's
// per-point seeds, so a single-backend run reproduces exactly the numbers
// that backend shows in the complete figures.
func NFVExperiments(kinds []string) ([]Experiment, error) { return experiments.NFVSpecs(kinds) }
