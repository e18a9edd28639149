package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json, at the repository root, must describe exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(printed))
			return
		}
		for i, m := range printed {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd(nil, 0))
	traced := runResult{untraced: []sample{{}}, traced: []sample{{}}}
	check("per_layer", b.PerLayer, perLayer(traced, &layerProfile{}))
}
