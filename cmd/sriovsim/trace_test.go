package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"

	sriov "repro"
)

// fig07TraceSHA256 pins `sriovsim -fig fig07 -trace-out`: the sha256 of the
// Chrome trace-event JSON written for fig07's observe run. Any change to
// which events or spans the datapath records, or to the exporter, moves it;
// recapture it with `sriovsim -fig fig07 -trace-out t.json && sha256sum
// t.json` only for an intended trace change.
const fig07TraceSHA256 = "e21348d84466f1ad194554636fdc855a9d88bf73260d98fa25444f1a7ac3bf07"

func TestTraceOutDigest(t *testing.T) {
	specs, err := runner.Specs([]string{"fig07"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, specs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != fig07TraceSHA256 {
		t.Fatalf("fig07 -trace-out sha256 = %s, want %s (%d bytes)", got, fig07TraceSHA256, len(data))
	}
}

// TestTraceOutNeedsObserveHook: -trace-out traces only an experiment that
// ran. The ad-hoc -clos, -hosts and -backend specs have no observe hook,
// so asking them for a trace is an error and writes nothing.
func TestTraceOutNeedsObserveHook(t *testing.T) {
	nfv, err := sriov.NFVExperiments(sriov.DatapathBackends())
	if err != nil {
		t.Fatal(err)
	}
	for name, specs := range map[string][]sriov.Experiment{
		"clos":    {sriov.ClosRingExperiment(4, 1, sriov.FastpathAuto)},
		"hosts":   {sriov.ClusterScaleExperiment(4, sriov.LinkConfig{})},
		"backend": nfv,
	} {
		path := filepath.Join(t.TempDir(), "trace.json")
		err := writeTrace(path, specs)
		if err == nil || !strings.Contains(err.Error(), "no selected experiment has an observe hook") {
			t.Errorf("-%s -trace-out: err = %v, want the no-observe-hook error", name, err)
		}
		if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
			t.Errorf("-%s -trace-out wrote %s", name, path)
		}
	}
}
