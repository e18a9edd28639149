// Package ctlplane is the VF management control plane: a reconcile-loop
// controller that sits above the cluster fabric and the DNIS migration
// machinery and manages a running fleet — healing VF loss by re-attaching
// fresh functions through the PCIe hot-plug path, and rebalancing VMs
// across hosts with live migrations under explicit budgets, driven by a
// pluggable placement policy evaluated on a periodic tick of the simulated
// clock.
//
// It runs in process. The fig28/fig29 experiments call RunScenario, and
// `sriovsim -scenario FILE` runs one versioned Scenario document (below)
// and prints its deterministic SLO report.
//
// Determinism: a scenario run is a pure function of (scenario, seed). The
// controller only acts on reconcile ticks of the simulation clock, walks
// its VM and host books in registration/index order, and never iterates a
// map on any decision path — so the same scenario JSON and seed produce a
// byte-identical Report at any runner parallelism.
package ctlplane

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/units"
)

// SchemaJSON is the committed JSON Schema of the Scenario document. The
// schema drift test holds its property names and enums to the types and
// parsers below.
//
//go:embed schema.json
var SchemaJSON []byte

// SchemaVersion is the scenario document format version. Decode rejects
// any other value, so committed scenarios never silently reinterpret.
const SchemaVersion = 1

// Scenario is the committed JSON document describing one control-plane
// run: topology, workload, faults, and controller configuration. The zero
// values of optional fields select the defaults documented per field.
type Scenario struct {
	// Schema must be SchemaVersion.
	Schema int `json:"schema"`
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Seed is the default engine seed; an explicit seed passed to NewRun
	// or RunScenario overrides it. 0 means 1.
	Seed uint64 `json:"seed,omitempty"`

	// Hosts is the cluster size (default 2). PortsPerHost and VFsPerPort
	// shape each host's NICs (defaults 1 and 7).
	Hosts        int `json:"hosts,omitempty"`
	PortsPerHost int `json:"ports_per_host,omitempty"`
	VFsPerPort   int `json:"vfs_per_port,omitempty"`
	// GuestMemoryMiB sizes each guest (default 32 — small enough that a
	// live migration completes in a few hundred simulated milliseconds).
	GuestMemoryMiB int `json:"guest_memory_mib,omitempty"`

	// Policy selects the placement policy: "binpack", "spread", or
	// "static" (default; no rebalancing).
	Policy string `json:"policy,omitempty"`
	// Heal enables VF-loss healing on the reconcile tick.
	Heal bool `json:"heal,omitempty"`
	// ReconcileMs is the reconcile tick period (default 100).
	ReconcileMs int `json:"reconcile_ms,omitempty"`
	// MaxConcurrentMigrations caps in-flight migrations (default 1).
	MaxConcurrentMigrations int `json:"max_concurrent_migrations,omitempty"`
	// MoveBudget caps total policy-driven migrations for the whole run;
	// 0 means unlimited.
	MoveBudget int `json:"move_budget,omitempty"`

	// WarmupMs and RunMs bound the measurement: goodput and availability
	// are measured over [WarmupMs, WarmupMs+RunMs] (defaults 300 and 2000).
	WarmupMs int `json:"warmup_ms,omitempty"`
	RunMs    int `json:"run_ms,omitempty"`
	// HealthyFraction is the SLO healthy-bucket threshold (default 0.5).
	HealthyFraction float64 `json:"healthy_fraction,omitempty"`

	// VMs are the managed fleet. Faults are the injected failures.
	VMs    []VMSpec    `json:"vms"`
	Faults []FaultSpec `json:"faults,omitempty"`
}

// VMSpec places one managed VM.
type VMSpec struct {
	Name string `json:"name"`
	// Host is the initial placement (cluster host index).
	Host int `json:"host"`
	// RateMbps is the nominal service rate a stationary client streams at
	// the VM across the fabric.
	RateMbps int `json:"rate_mbps"`
	// Group is an optional failure-domain / anti-affinity group: policies
	// never co-locate two VMs of one group.
	Group string `json:"group,omitempty"`
	// ClientHost places the VM's traffic client. Omitted (nil), the client
	// sits on (Host+1) mod Hosts. An explicit same-host client is legal:
	// the NIC's internal switch hairpins its frames.
	ClientHost *int `json:"client_host,omitempty"`
}

// FaultSpec schedules one fault against a managed host's NIC.
type FaultSpec struct {
	AtMs int `json:"at_ms"`
	// Kind is the fault kind name: "link-flap", "mbox-drop", "mbox-delay",
	// "queue-stall", "device-reset", or "vf-remove".
	Kind string `json:"kind"`
	Host int    `json:"host"`
	Port int    `json:"port,omitempty"`
	// VM, when non-empty, aims the fault at the named VM's current VF slot
	// at injection time (the controller may have moved it); Port/VF are
	// then ignored. Otherwise VF indexes the port's functions directly.
	VM string `json:"vm,omitempty"`
	VF int    `json:"vf,omitempty"`
	// DurationMs bounds windowed faults; 0 on "vf-remove" means the
	// function never returns.
	DurationMs int `json:"duration_ms,omitempty"`
	// DelayMs is the extra latency for "mbox-delay".
	DelayMs int `json:"delay_ms,omitempty"`
}

// scenario defaults.
func (sc *Scenario) fill() {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Hosts == 0 {
		sc.Hosts = 2
	}
	if sc.PortsPerHost == 0 {
		sc.PortsPerHost = 1
	}
	if sc.VFsPerPort == 0 {
		sc.VFsPerPort = 7
	}
	if sc.GuestMemoryMiB == 0 {
		sc.GuestMemoryMiB = 32
	}
	if sc.ReconcileMs == 0 {
		sc.ReconcileMs = 100
	}
	if sc.MaxConcurrentMigrations == 0 {
		sc.MaxConcurrentMigrations = 1
	}
	if sc.WarmupMs == 0 {
		sc.WarmupMs = 300
	}
	if sc.RunMs == 0 {
		sc.RunMs = 2000
	}
	if sc.HealthyFraction == 0 {
		sc.HealthyFraction = 0.5
	}
}

// faultKinds are the fault kinds a scenario may name, in schema order.
var faultKinds = []fault.Kind{fault.LinkFlap, fault.MailboxDrop, fault.MailboxDelay,
	fault.QueueStall, fault.DeviceReset, fault.SurpriseRemoveVF}

// ParseFaultKind maps a scenario fault-kind name to the injector's Kind.
func ParseFaultKind(name string) (fault.Kind, error) {
	for _, k := range faultKinds {
		if k.String() == name {
			return k, nil
		}
	}
	names := make([]string, len(faultKinds))
	for i, k := range faultKinds {
		names[i] = k.String()
	}
	return 0, fmt.Errorf("ctlplane: unknown fault kind %q (valid: %s)", name, strings.Join(names, ", "))
}

// Validate checks the scenario for structural errors a run would otherwise
// hit mid-flight: bad indices, over-committed VF slots, unknown policy or
// fault names, duplicate VM names.
func (sc *Scenario) Validate() error {
	if sc.Schema != SchemaVersion {
		return fmt.Errorf("ctlplane: scenario schema %d, want %d", sc.Schema, SchemaVersion)
	}
	c := *sc // validate against the filled view without mutating the input
	c.fill()
	if c.Hosts < 1 || c.Hosts > 16 {
		return fmt.Errorf("ctlplane: hosts %d out of range 1..16", c.Hosts)
	}
	if c.PortsPerHost < 1 || c.PortsPerHost > 4 {
		return fmt.Errorf("ctlplane: ports_per_host %d out of range 1..4", c.PortsPerHost)
	}
	// The 82576 model exposes at most 8 VFs per port.
	if c.VFsPerPort < 1 || c.VFsPerPort > 8 {
		return fmt.Errorf("ctlplane: vfs_per_port %d out of range 1..8", c.VFsPerPort)
	}
	if len(c.VMs) == 0 {
		return fmt.Errorf("ctlplane: scenario has no vms")
	}
	if _, err := ParsePolicy(c.Policy); err != nil {
		return err
	}
	if c.HealthyFraction < 0 || c.HealthyFraction > 1 {
		return fmt.Errorf("ctlplane: healthy_fraction %g out of range 0..1", c.HealthyFraction)
	}
	if c.RunMs < 0 || c.WarmupMs < 0 || c.ReconcileMs < 0 ||
		c.MaxConcurrentMigrations < 0 || c.MoveBudget < 0 || c.GuestMemoryMiB < 0 {
		return fmt.Errorf("ctlplane: negative duration or budget field")
	}
	names := make(map[string]bool, len(c.VMs))
	perHost := make([]int, c.Hosts) // managed VMs initially placed per host
	clients := make([]int, c.Hosts) // client endpoints per host
	for i, vm := range c.VMs {
		if vm.Name == "" {
			return fmt.Errorf("ctlplane: vms[%d] has no name", i)
		}
		if names[vm.Name] {
			return fmt.Errorf("ctlplane: duplicate vm name %q", vm.Name)
		}
		names[vm.Name] = true
		if vm.Host < 0 || vm.Host >= c.Hosts {
			return fmt.Errorf("ctlplane: vm %q on host %d, but scenario has hosts 0..%d",
				vm.Name, vm.Host, c.Hosts-1)
		}
		if vm.RateMbps <= 0 {
			return fmt.Errorf("ctlplane: vm %q needs a positive rate_mbps", vm.Name)
		}
		ch := (vm.Host + 1) % c.Hosts
		if vm.ClientHost != nil {
			ch = *vm.ClientHost
		}
		if ch < 0 || ch >= c.Hosts {
			return fmt.Errorf("ctlplane: vm %q client on host %d, but scenario has hosts 0..%d",
				vm.Name, ch, c.Hosts-1)
		}
		perHost[vm.Host]++
		clients[ch]++
	}
	// Slot capacity: every initial VM and every client needs a VF on its
	// host. (Rebalancing may need more headroom; the controller skips moves
	// that don't fit, so under-provisioning there is a policy outcome, not
	// an error.)
	for h := 0; h < c.Hosts; h++ {
		cap := c.PortsPerHost * c.VFsPerPort
		if perHost[h]+clients[h] > cap {
			return fmt.Errorf("ctlplane: host %d needs %d VF slots (%d vms + %d clients) but has %d",
				h, perHost[h]+clients[h], perHost[h], clients[h], cap)
		}
	}
	for i, f := range c.Faults {
		if _, err := ParseFaultKind(f.Kind); err != nil {
			return fmt.Errorf("ctlplane: faults[%d]: %w", i, err)
		}
		if f.Host < 0 || f.Host >= c.Hosts {
			return fmt.Errorf("ctlplane: faults[%d] on host %d, but scenario has hosts 0..%d",
				i, f.Host, c.Hosts-1)
		}
		if f.Port < 0 || f.Port >= c.PortsPerHost {
			return fmt.Errorf("ctlplane: faults[%d] on port %d, but hosts have ports 0..%d",
				i, f.Port, c.PortsPerHost-1)
		}
		if f.VM != "" && !names[f.VM] {
			return fmt.Errorf("ctlplane: faults[%d] targets unknown vm %q", i, f.VM)
		}
		if f.VM == "" && (f.VF < 0 || f.VF >= c.VFsPerPort) {
			return fmt.Errorf("ctlplane: faults[%d] targets vf %d, but ports have vfs 0..%d",
				i, f.VF, c.VFsPerPort-1)
		}
		if f.AtMs < 0 || f.DurationMs < 0 || f.DelayMs < 0 {
			return fmt.Errorf("ctlplane: faults[%d] has a negative time field", i)
		}
	}
	return nil
}

// DecodeScenario parses and validates a scenario document. Unknown fields
// are rejected, so a typoed knob fails loudly instead of silently running
// the default.
func DecodeScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("ctlplane: scenario: %w", err)
	}
	// Trailing garbage after the document is a truncation/concatenation
	// bug, not a second scenario.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil || len(extra) > 0 {
		return nil, fmt.Errorf("ctlplane: scenario: trailing data after JSON document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// EncodeScenario renders the canonical (indented, field-ordered) form of a
// scenario. Decode∘Encode is the identity on canonical documents — the
// golden round-trip tests pin that.
func EncodeScenario(sc *Scenario) ([]byte, error) {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ctlplane: scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// durations converts the millisecond fields once, at the run boundary.
func ms(n int) units.Duration { return units.Duration(n) * units.Millisecond }
