package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"map frames charge to the layer above them", []string{
			"aeshashbody", "type:.hash.repro/internal/iommu.iotlbKey", "runtime.mapaccess2",
			"repro/internal/iommu.(*IOTLB).lookup", "repro/internal/pcie.(*Fabric).RouteDMA", "main.main",
		}, "iommu"},
		{"malloc and GC assist charge to the layer", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject",
			"repro/internal/drivers.(*Netback).poll", "repro/internal/sim.(*Engine).RunUntil",
		}, "drivers"},
		{"the innermost layer wins", []string{
			"repro/internal/units.TransferTime", "repro/internal/cluster.(*closLink).send",
		}, "units"},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, gcBucket},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, gcBucket},
		{"the benchmark itself", []string{"encoding/json.Marshal", "main.digest", "main.iterate"}, otherBucket},
		{"a module outside the layer list", []string{"repro/internal/report.(*Figure).AddSeries"}, otherBucket},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("%s: bucketOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// testdata/traces.txt is `go tool pprof -traces` of one profiled tor-fleet
// iteration at a quarter of the horizon. The expected self times were
// counted from the listing by hand.
func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	total, stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if total != 490*time.Millisecond || len(stacks) == 0 {
		t.Fatalf("parsed total %v over %d stacks, want 490ms", total, len(stacks))
	}
	self, incl := attribute(stacks)
	var sum float64
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-total.Seconds()) > 0.01*total.Seconds() {
		t.Errorf("self times sum to %.3fs, want the sampled total %.3fs within 1%%", sum, total.Seconds())
	}
	for bucket, want := range map[string]float64{"iommu": 0.08, "sim": 0.08, "cpu": 0.06, gcBucket: 0.02} {
		if got := self[bucket]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self[%s] = %.3fs, want %.3fs", bucket, got, want)
		}
	}
	for _, l := range layers {
		if incl[l] < self[l]-1e-9 || incl[l] > total.Seconds()+1e-9 {
			t.Errorf("%s: inclusive %.3fs outside [self %.3fs, total %.3fs]", l, incl[l], self[l], total.Seconds())
		}
	}
	// The listing's first hash-map stack: aeshashbody and the map access
	// sit beneath the IOTLB lookup.
	for _, st := range stacks {
		if st.frames[0] == "aeshashbody" && strings.Contains(st.frames[1], "internal/iommu.") {
			if b := bucketOf(st.frames); b != "iommu" {
				t.Errorf("map stack charged to %s, want iommu", b)
			}
			return
		}
	}
	t.Error("fixture has no map stack under the IOTLB")
}

func TestParsePprofDuration(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"10ms": 10 * time.Millisecond, "1.50s": 1500 * time.Millisecond,
		"2.50mins": 150 * time.Second, "1.50hrs": 90 * time.Minute,
	} {
		if got, err := parsePprofDuration(in); err != nil || got != want {
			t.Errorf("parsePprofDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parsePprofDuration("fast"); err == nil {
		t.Error("parsePprofDuration accepted a non-duration")
	}
}
