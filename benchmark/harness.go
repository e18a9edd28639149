package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// sample is one iteration's measurements.
type sample struct {
	setupS, runS, auditS, wallS float64 // host seconds per phase
	// setups are this iteration's set-up time and those of the extra
	// set-up-only instances after it (untraced iterations only).
	setups             []float64
	runEvents          uint64  // engine events during the run phase
	allocs, allocBytes uint64  // heap allocations during the phases
	gc                 gcStats // GC work during the phases
	calls              *calls
	out                outcome
	digest             string // "" when setup failed
}

// iterate builds one simulation from in and drives it through its phases,
// timing each and measuring the allocations and GC work they cause. With a
// non-nil prof, the Go CPU profiler records the phases into it.
func iterate(in input, tr *tracer, prof io.Writer) (sample, error) {
	runtime.GC() // start every iteration from the same heap
	s := in.newSim()
	c := &calls{tr: tr}
	var m0, m1 runtime.MemStats
	g0 := readGC()
	runtime.ReadMemStats(&m0)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return sample{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	it := tr.begin("iteration")
	t0 := time.Now()
	sp := tr.begin("setup")
	err := s.setup(c)
	tr.end(sp)
	t1 := time.Now()
	t2, t3 := t1, t1
	var e0, e1 uint64
	if err == nil {
		e0 = s.engine().Processed()
		sp = tr.begin("run")
		s.run(c)
		tr.end(sp)
		t2 = time.Now()
		e1 = s.engine().Processed()
		sp = tr.begin("audit")
		s.audit(c)
		tr.end(sp)
		t3 = time.Now()
	}
	tr.end(it)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	g1 := readGC()

	smp := sample{
		setupS: t1.Sub(t0).Seconds(), runS: t2.Sub(t1).Seconds(),
		auditS: t3.Sub(t2).Seconds(), wallS: t3.Sub(t0).Seconds(),
		runEvents: e1 - e0,
		allocs:    m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gc:    gcStats{g1.cpuS - g0.cpuS, g1.assistS - g0.assistS, g1.cycles - g0.cycles},
		calls: c,
	}
	if err != nil {
		return smp, nil
	}
	smp.out = s.outcome()
	smp.out.counts["sim.events"] = float64(s.engine().Processed())
	smp.digest, err = digest(smp.out)
	return smp, err
}

// simulatorCounts measure the simulator rather than the simulated system:
// a faster engine or a different packet/fluid split may change them while
// every simulated statistic stays identical, so they stay out of the
// digest.
var simulatorCounts = map[string]bool{
	"sim.events":                  true,
	"cluster.fastpath_demotions":  true,
	"cluster.fastpath_promotions": true,
	"cluster.fluid_byte_share":    true,
}

// digest is the sha256 of the canonical JSON of the simulated results and
// the simulated counts (encoding/json sorts map keys).
func digest(o outcome) (string, error) {
	counts := make(map[string]float64, len(o.counts))
	for k, v := range o.counts {
		if !simulatorCounts[k] {
			counts[k] = v
		}
	}
	data, err := json.Marshal(struct {
		Results any                `json:"results"`
		Counts  map[string]float64 `json:"counts"`
	}{o.results, counts})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

type gcStats struct{ cpuS, assistS, cycles float64 }

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcStats{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, which
// Linux reports in KiB), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

type options struct {
	seed     uint64
	frac     float64 // horizon scale; 1 for the benchmark
	seconds  float64 // host seconds to keep iterating for
	trace    bool
	traceDir string
	golden   string // expected digest; "" when none is recorded
}

// runResult is everything one run measured.
type runResult struct {
	untraced, traced []sample
	profiles         []string // CPU profiles of the traced iterations
	spans            *tracer
	peakRSSMB        float64
}

// measure iterates the workload on one generated input until o.seconds
// have passed, at least once. A traced run alternates untraced and traced
// iterations, so both see the same machine conditions and their wall
// times give the tracing overhead.
func measure(w workloadSpec, o options) (runResult, error) {
	in := w.gen(o.seed, o.frac)
	var res runResult
	if o.trace {
		res.spans = newTracer()
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return res, err
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(res.untraced) > 0 && (!o.trace || len(res.traced) > 0)
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
		if !o.trace || i%2 == 0 {
			s, err := iterate(in, nil, nil)
			if err != nil {
				return res, err
			}
			s.setups = append(extraSetups(in), s.setupS)
			res.untraced = append(res.untraced, s)
			continue
		}
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d-%d.pprof", w.name, o.seed, i))
		s, err := iterateProfiled(in, res.spans, path)
		if err != nil {
			return res, err
		}
		res.traced = append(res.traced, s)
		res.profiles = append(res.profiles, path)
	}
	res.peakRSSMB = peakRSSMB()
	return res, nil
}

// setupBudget is the host time spent after each untraced iteration on
// extra set-up-only instances. Most workloads set up in a few
// milliseconds, so one sample per iteration gives a noisy median.
const setupBudget = 100 * time.Millisecond

// extraSetups times the setup phase of fresh instances, each from a
// collected heap like the iteration's own, until setupBudget is spent.
func extraSetups(in input) []float64 {
	var ts []float64
	for start := time.Now(); time.Since(start) < setupBudget; {
		runtime.GC()
		s := in.newSim()
		t := time.Now()
		if err := s.setup(&calls{}); err != nil {
			break
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return ts
}

func iterateProfiled(in input, tr *tracer, path string) (sample, error) {
	f, err := os.Create(path)
	if err != nil {
		return sample{}, err
	}
	s, err := iterate(in, tr, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return s, err
}

// verdict is a run's correctness and operation tally.
type verdict struct {
	digest    string
	correct   bool // one digest, golden if recorded, sane results, no failed operation
	attempted int
	failures  []string
	problems  []string
}

// judge checks a run's outputs. Every iteration must produce the same
// digest, since a simulation is a pure function of its input, and it must
// equal the golden digest when one is recorded. Each iteration's digest
// check is one operation, failed on a mismatch. The sanity checks are the
// first iteration's; equal digests mean equal results.
func judge(res runResult, golden string) verdict {
	all := append(append([]sample(nil), res.untraced...), res.traced...)
	v := verdict{digest: all[0].digest, problems: all[0].out.problems}
	want := golden
	if want == "" {
		want = v.digest
	}
	for _, s := range all {
		v.attempted += s.calls.attempted + 1
		v.failures = append(v.failures, s.calls.failures...)
		if s.digest != want {
			v.failures = append(v.failures, fmt.Sprintf("digest %.12s, want %.12s", s.digest, want))
		}
	}
	v.correct = v.digest != "" && len(v.problems) == 0 && len(v.failures) == 0
	return v
}
