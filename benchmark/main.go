// Command benchmark is the simulator's end-to-end and per-layer benchmark.
// One invocation runs one workload on inputs generated from a seed, for a
// fixed stretch of host time, and prints every metric by name and unit,
// then a JSON result as its last line:
//
//	bash benchmark/run.sh --workload vf-scale --seed 1 --seconds 25 --trace 0
//
// run.sh builds this module against the checkout's sources. See README.md
// for the workloads, the metrics and how to compare two commits.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// golden.json maps workload → seed → the digest of a full-size run.
//
//go:embed golden.json
var goldenJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, measures, and reports. It returns the exit code:
// 0 only when every operation succeeded and the outputs checked correct.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 25, "host seconds to keep iterating the workload for")
	trace := fs.Int("trace", 0, "1 for a traced run: spans, CPU profile and the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for a traced run's Chrome trace and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (valid: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	golden, err := goldenDigest(w.name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o := options{seed: *seed, frac: 1, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, golden: golden}
	return measureAndReport(w, o, stdout, stderr)
}

// measureAndReport runs the workload and prints the report, returning the
// exit code.
func measureAndReport(w workloadSpec, o options, stdout, stderr io.Writer) int {
	res, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	v := judge(res, o.golden)
	ms := endToEnd(res.untraced, res.peakRSSMB)
	if o.trace {
		total, stacks, err := profileStacks(res.profiles)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := res.spans.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace       %s\n", path)
		ms = perLayer(res, newLayerProfile(stacks, total.Seconds(), len(res.traced)))
	}

	fmt.Fprintf(stdout, "workload    %s: %s\n", w.name, w.why)
	fmt.Fprintf(stdout, "run         seed %d, %d untraced + %d traced iterations\n",
		o.seed, len(res.untraced), len(res.traced))
	switch {
	case o.golden == "":
		fmt.Fprintf(stdout, "digest      %s (no golden digest for this seed)\n", v.digest)
	case v.digest == o.golden:
		fmt.Fprintf(stdout, "digest      %s (matches golden)\n", v.digest)
	default:
		fmt.Fprintf(stdout, "digest      %s (golden %s)\n", v.digest, o.golden)
	}
	for _, f := range v.failures {
		fmt.Fprintf(stdout, "FAILED      %s\n", f)
	}
	for _, p := range v.problems {
		fmt.Fprintf(stdout, "INCORRECT   %s\n", p)
	}
	if err := printReport(stdout, v, ms); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !v.correct {
		return 1
	}
	return 0
}

// goldenDigest looks up the recorded digest of a workload at a seed; ""
// when none is recorded.
func goldenDigest(name string, seed uint64) (string, error) {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	return golden[name][strconv.FormatUint(seed, 10)], nil
}
