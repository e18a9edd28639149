package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// fig07TraceSHA256 pins `sriovsim -fig fig07 -trace-out`: the sha256 of the
// Chrome trace-event JSON written for fig07's observe run. Any change to
// which events or spans the datapath records, or to the exporter, moves it;
// recapture it with `sriovsim -fig fig07 -trace-out t.json && sha256sum
// t.json` only for an intended trace change.
const fig07TraceSHA256 = "e21348d84466f1ad194554636fdc855a9d88bf73260d98fa25444f1a7ac3bf07"

func TestTraceOutDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, []string{"fig07"}); err != nil {
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
