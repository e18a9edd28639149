package ctlplane

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScenario exercises every schema field at least once.
func goldenScenario() *Scenario {
	client := 1
	return &Scenario{
		Schema: SchemaVersion, Name: "golden", Seed: 11,
		Hosts: 3, PortsPerHost: 2, VFsPerPort: 8, GuestMemoryMiB: 32,
		Policy: "spread", Heal: true,
		ReconcileMs: 50, MaxConcurrentMigrations: 2, MoveBudget: 4,
		WarmupMs: 300, RunMs: 2000, HealthyFraction: 0.6,
		VMs: []VMSpec{
			{Name: "web0", Host: 0, RateMbps: 400, Group: "web", ClientHost: &client},
			{Name: "web1", Host: 0, RateMbps: 400, Group: "web"},
			{Name: "db0", Host: 1, RateMbps: 200},
		},
		Faults: []FaultSpec{
			{AtMs: 900, Kind: "vf-remove", Host: 0, VM: "web0"},
			{AtMs: 1200, Kind: "link-flap", Host: 1, Port: 0, DurationMs: 300},
			{AtMs: 1500, Kind: "mbox-delay", Host: 2, Port: 1, VF: 3, DurationMs: 100, DelayMs: 5},
		},
	}
}

func TestScenarioGolden(t *testing.T) {
	path := filepath.Join("testdata", "scenario_golden.json")
	enc, err := EncodeScenario(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding drifted from golden:\n--- got\n%s\n--- want\n%s", enc, want)
	}
	// Decode∘Encode is the identity on the canonical form.
	sc, err := DecodeScenario(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, goldenScenario()) {
		t.Fatalf("round-trip mismatch:\n%+v\nwant\n%+v", sc, goldenScenario())
	}
	re, err := EncodeScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, want) {
		t.Fatal("re-encode of decoded golden drifted")
	}
}

func TestDecodeScenarioErrors(t *testing.T) {
	valid := func(mut func(*Scenario)) []byte {
		sc := goldenScenario()
		mut(sc)
		data, err := EncodeScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", []byte(""), "scenario"},
		{"not-json", []byte("not json"), "scenario"},
		{"unknown-field", []byte(`{"schema":1,"name":"x","vms":[{"name":"a","host":0,"rate_mbps":1}],"bogus":true}`), "bogus"},
		{"trailing-data", append(valid(func(*Scenario) {}), []byte("{}")...), "trailing data"},
		{"bad-schema", []byte(`{"schema":2,"name":"x","vms":[{"name":"a","host":0,"rate_mbps":1}]}`), "schema 2"},
		{"no-vms", []byte(`{"schema":1,"name":"x","vms":[]}`), "no vms"},
		{"dup-vm", valid(func(sc *Scenario) { sc.VMs[1].Name = sc.VMs[0].Name }), "duplicate vm"},
		{"bad-host", valid(func(sc *Scenario) { sc.VMs[0].Host = 9 }), "hosts 0..2"},
		{"bad-rate", valid(func(sc *Scenario) { sc.VMs[0].RateMbps = 0 }), "rate_mbps"},
		{"bad-policy", valid(func(sc *Scenario) { sc.Policy = "roulette" }), "binpack, spread, static"},
		{"bad-kind", valid(func(sc *Scenario) { sc.Faults[0].Kind = "meteor" }), "unknown fault kind"},
		{"bad-fault-host", valid(func(sc *Scenario) { sc.Faults[1].Host = 7 }), "hosts 0..2"},
		{"bad-fault-port", valid(func(sc *Scenario) { sc.Faults[1].Port = 5 }), "ports 0..1"},
		{"bad-fault-vf", valid(func(sc *Scenario) { sc.Faults[2].VF = 99 }), "vfs 0.."},
		{"bad-fault-vm", valid(func(sc *Scenario) { sc.Faults[0].VM = "ghost" }), "unknown vm"},
		{"bad-frac", valid(func(sc *Scenario) { sc.HealthyFraction = 1.5 }), "healthy_fraction"},
		{"negative", valid(func(sc *Scenario) { sc.Faults[0].AtMs = -1 }), "negative"},
		{"overcommit", func() []byte {
			sc := goldenScenario()
			sc.Hosts = 1
			sc.PortsPerHost = 1
			sc.VFsPerPort = 2
			for i := range sc.VMs {
				sc.VMs[i].Host = 0
				sc.VMs[i].ClientHost = nil
				sc.VMs[i].Group = ""
			}
			sc.Faults = nil
			data, err := EncodeScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}(), "VF slots"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeScenario(c.data)
			if err == nil {
				t.Fatalf("decode accepted %s", c.data)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestParseFaultKindRoundTrip(t *testing.T) {
	for _, name := range []string{"link-flap", "mbox-drop", "mbox-delay", "queue-stall", "device-reset", "vf-remove"} {
		k, err := ParseFaultKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Fatalf("round trip %q → %q", name, k)
		}
	}
	if _, err := ParseFaultKind("gremlin"); err == nil || !strings.Contains(err.Error(), "link-flap") {
		t.Fatalf("unknown kind error should list choices, got %v", err)
	}
}

// TestSchemaMatchesTypes holds the committed schema.json to the code that
// decodes scenarios: each object's property names are the json tags of
// its Go type, each object forbids other properties as the strict decoder
// does, and the kind and policy enums are the names the parsers accept.
func TestSchemaMatchesTypes(t *testing.T) {
	type node struct {
		AdditionalProperties *bool            `json:"additionalProperties"`
		Properties           map[string]*node `json:"properties"`
		Items                *node            `json:"items"`
		Enum                 []string         `json:"enum"`
	}
	var top node
	if err := json.Unmarshal(SchemaJSON, &top); err != nil {
		t.Fatalf("schema.json: %v", err)
	}
	vms, faults := top.Properties["vms"].Items, top.Properties["faults"].Items
	for _, tc := range []struct {
		path string
		obj  *node
		typ  reflect.Type
	}{
		{"top level", &top, reflect.TypeOf(Scenario{})},
		{"vms.items", vms, reflect.TypeOf(VMSpec{})},
		{"faults.items", faults, reflect.TypeOf(FaultSpec{})},
	} {
		var props, tags []string
		for name := range tc.obj.Properties {
			props = append(props, name)
		}
		for i := 0; i < tc.typ.NumField(); i++ {
			tag, _, _ := strings.Cut(tc.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, tag)
		}
		slices.Sort(props)
		slices.Sort(tags)
		if !slices.Equal(props, tags) {
			t.Errorf("%s: schema properties %v, %s json tags %v", tc.path, props, tc.typ.Name(), tags)
		}
		if ap := tc.obj.AdditionalProperties; ap == nil || *ap {
			t.Errorf("%s: schema must set additionalProperties: false", tc.path)
		}
	}

	var kinds []string
	for _, k := range faultKinds {
		kinds = append(kinds, k.String())
	}
	if got := faults.Properties["kind"].Enum; !slices.Equal(got, kinds) {
		t.Errorf("schema kind enum %v, ParseFaultKind accepts %v", got, kinds)
	}
	policies := append(slices.Clone(policyNames), "")
	if got := top.Properties["policy"].Enum; !slices.Equal(got, policies) {
		t.Errorf("schema policy enum %v, ParsePolicy accepts %v", got, policies)
	}
	for _, name := range policies {
		if _, err := ParsePolicy(name); err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
	}
}

// FuzzScenarioDecode hammers the strict parser: any input that decodes
// must be valid, re-encodable, and stable under a decode∘encode cycle —
// the property deterministic replay leans on.
func FuzzScenarioDecode(f *testing.F) {
	seed, err := EncodeScenario(goldenScenario())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":1,"name":"t","vms":[{"name":"a","host":0,"rate_mbps":100}]}`))
	f.Add([]byte(`{"schema":1,"vms":[{"name":"a","host":1,"rate_mbps":1},{"name":"b","host":0,"rate_mbps":2,"group":"g"}],"faults":[{"at_ms":1,"kind":"device-reset","host":0}]}`))
	f.Add([]byte(`{"schema":0}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("decode accepted an invalid scenario: %v", err)
		}
		enc, err := EncodeScenario(sc)
		if err != nil {
			t.Fatalf("decoded scenario failed to encode: %v", err)
		}
		sc2, err := DecodeScenario(enc)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, enc)
		}
		enc2, err := EncodeScenario(sc2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not stable:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
