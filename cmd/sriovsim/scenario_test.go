package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestScenarioPrintsGoldenReport: `sriovsim -scenario` on the committed
// example prints exactly its golden report, and -metrics-out holds that
// run's registry.
func TestScenarioPrintsGoldenReport(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "ctlplane")
	golden, err := os.ReadFile(filepath.Join(dir, "report_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenario", filepath.Join(dir, "scenario.json"), "-metrics-out", metrics}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), golden) {
		t.Fatalf("stdout differs from report_golden.json:\ngot:\n%s\nwant:\n%s", stdout.Bytes(), golden)
	}

	var rep struct {
		PlacementChurn int64 `json:"placement_churn"`
	}
	if err := json.Unmarshal(golden, &rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	churn, ok := reg.Counters["ctl.placement_churn"]
	if !ok || churn != rep.PlacementChurn {
		t.Fatalf("-metrics-out ctl.placement_churn = %d (present %v), report placement_churn = %d",
			churn, ok, rep.PlacementChurn)
	}
}

// TestScenarioBadInputExits2: a file that does not read or does not
// decode exits 2 and prints nothing to stdout.
func TestScenarioBadInputExits2(t *testing.T) {
	dir := t.TempDir()
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"schema":1,"name":"x","vms":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{
		"missing": filepath.Join(dir, "missing.json"),
		"invalid": invalid,
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scenario", path}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, want empty", name, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%s: no error on stderr", name)
		}
	}
}
