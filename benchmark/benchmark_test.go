package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ctlplane"
)

// smoke is the horizon fraction the tests run the workloads at.
const smoke = 1.0 / 20

func iterateSmoke(t *testing.T, w workloadSpec, seed uint64, traced bool) sample {
	t.Helper()
	var tr *tracer
	var prof bytes.Buffer
	var pw io.Writer
	if traced {
		tr, pw = newTracer(), &prof
	}
	s, err := iterate(w.gen(seed, smoke), tr, pw)
	if err != nil {
		t.Fatal(err)
	}
	if s.digest == "" {
		t.Fatalf("seed %d: setup failed: %v", seed, s.calls.failures)
	}
	if traced && (len(tr.spans) == 0 || prof.Len() == 0) {
		t.Fatalf("traced iteration recorded %d spans and %d profile bytes", len(tr.spans), prof.Len())
	}
	return s
}

// Inputs are a pure function of the seed, the simulation a pure function of
// its inputs, and tracing (spans plus the CPU profiler) only observes.
func TestDigestDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := iterateSmoke(t, w, 1, false)
			b := iterateSmoke(t, w, 1, true)
			if a.digest != b.digest {
				t.Errorf("seed 1 digests differ between an untraced and a traced run: %s vs %s", a.digest, b.digest)
			}
			if !reflect.DeepEqual(a.out.counts, b.out.counts) {
				t.Errorf("seed 1 counts differ:\n%v\n%v", a.out.counts, b.out.counts)
			}
			if !reflect.DeepEqual(a.calls.failures, b.calls.failures) {
				t.Errorf("seed 1 failures differ:\n%v\n%v", a.calls.failures, b.calls.failures)
			}
			if c := iterateSmoke(t, w, 2, false); c.digest == a.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.digest)
			}
		})
	}
}

// The benchmark drives tor-fleet in 50 ms steps so each step gets a span;
// that must be the same program as the one-call RunScenario.
func TestTorFleetStepwiseMatchesRunScenario(t *testing.T) {
	in := genTorFleet(1, smoke).(*torFleetInput)
	s := in.newSim().(*torFleetSim)
	c := &calls{}
	if err := s.setup(c); err != nil {
		t.Fatal(err)
	}
	s.run(c)
	s.audit(c)
	got, err := s.rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctlplane.RunScenario(in.sc, in.seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stepwise report differs from RunScenario's:\n%s\nwant:\n%s", got, want)
	}
	if len(s.stepMs) < 2 {
		t.Errorf("ran %d steps, want the horizon split into 50 ms steps", len(s.stepMs))
	}
}

// A failed operation is counted, every metric is still printed, and the
// run exits nonzero.
func TestFailedOperationFailsClosed(t *testing.T) {
	w := workloadSpec{name: "vf-scale", gen: func(seed uint64, frac float64) input {
		in := genVFScale(seed, frac).(*vfScaleInput)
		in.guests[0].port = vfPorts // a port the testbed does not have
		return in
	}}
	var out, errOut bytes.Buffer
	code := measureAndReport(w, options{seed: 1, frac: smoke}, &out, &errOut)
	if code == 0 {
		t.Errorf("exit code 0 after a failed operation")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]jsonMetric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	if res.Failed < 1 || res.Correct {
		t.Errorf("failed=%d correct=%v, want the rejected guest counted", res.Failed, res.Correct)
	}
	if !strings.Contains(out.String(), "core: no port 10") {
		t.Errorf("the failure is not reported:\n%s", out.String())
	}
	for _, m := range endToEnd(nil, 0) {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("metric %s missing from the result", m.name)
		}
	}
	var frac float64
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "ops_failed_frac" {
			if err := json.Unmarshal([]byte(f[1]), &frac); err != nil {
				t.Fatal(err)
			}
		}
	}
	if frac <= 0 {
		t.Errorf("ops_failed_frac = %v, want > 0", frac)
	}
}

func TestGoldenDigestsWellFormed(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			d, err := goldenDigest(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(d) != 64 {
				t.Errorf("%s seed %d: golden digest %q is not a sha256", w.name, seed, d)
			}
		}
	}
}
