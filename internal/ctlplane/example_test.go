package ctlplane

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestExampleGoldenReport keeps the committed example honest: running
// examples/ctlplane/scenario.json in process must reproduce
// examples/ctlplane/report_golden.json byte for byte — the same file that
// `sriovsim -scenario` is held to. Regenerate with:
//
//	sriovsim -scenario examples/ctlplane/scenario.json > examples/ctlplane/report_golden.json
func TestExampleGoldenReport(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "ctlplane")
	scenario, err := os.ReadFile(filepath.Join(dir, "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(dir, "report_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := DecodeScenario(scenario)
	if err != nil {
		t.Fatalf("example scenario does not decode: %v", err)
	}
	rep, err := RunScenario(sc, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("example report drifted from report_golden.json; regenerate it (see comment).\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
