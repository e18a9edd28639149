// Command sriovsim reproduces the paper's evaluation figures.
//
// Usage:
//
//	sriovsim -fig 12                 # reproduce one figure and print the report
//	sriovsim -fig 24,25,28,29        # several: the chaos + control-plane batch
//	sriovsim -all                    # reproduce everything (EXPERIMENTS.md content)
//	sriovsim -all -parallel 8        # shard experiments across 8 workers
//	sriovsim -all -bench-out BENCH.json  # also emit the benchmark record
//	sriovsim -all -profile out       # write out.cpu.pprof / out.heap.pprof
//	sriovsim -fig 7 -trace-out trace.json    # Perfetto/chrome://tracing export
//	sriovsim -fig 7 -metrics-out metrics.json  # dump the merged metrics registry
//	sriovsim -hosts 4                # cluster scale-out sweep with 4 hosts
//	sriovsim -hosts 4 -links 1000:5:256  # ...with explicit fabric link shape
//	sriovsim -clos 256               # leaf–spine Clos ring over 256 hosts
//	sriovsim -clos 256:10 -fastpath off  # ...10 VMs/host, packet-level only
//	sriovsim -backend all            # NFV datapath head-to-head (fig26/fig27)
//	sriovsim -backend vhost,ovs      # ...restricted to the named backends
//	sriovsim -list                   # list available experiments
//	sriovsim -alloc-table BENCH.json # per-experiment alloc columns as markdown
//	sriovsim -serve :8080            # control-plane REST/JSON scenario API
//
// Output is byte-identical at any -parallel value: experiments shard into
// independent series points, each simulated on its own deterministically
// seeded engine.
//
// Exit status is non-zero if any shape check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/workload"

	sriov "repro"
)

func main() {
	fig := flag.String("fig", "", "comma-separated figures to reproduce (e.g. 12, fig12 or 24,25,28,29)")
	all := flag.Bool("all", false, "reproduce every figure")
	list := flag.Bool("list", false, "list available experiments")
	csv := flag.Bool("csv", false, "emit the measured series as CSV instead of the report")
	parallel := flag.Int("parallel", 0, "worker count for sharding experiments (0 = GOMAXPROCS)")
	benchOut := flag.String("bench-out", "", "write a BENCH.json benchmark record to this file")
	goBench := flag.String("gobench", "", "merge `go test -bench` output from this file into -bench-out")
	profile := flag.String("profile", "", "write PREFIX.cpu.pprof and PREFIX.heap.pprof profiles")
	traceOut := flag.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON of a representative run to this file")
	metricsOut := flag.String("metrics-out", "", "write the run's merged metrics registry as JSON to this file")
	quiet := flag.Bool("q", false, "suppress per-task progress on stderr")
	backend := flag.String("backend", "", "run the NFV datapath figures (fig26/fig27) for these comma-separated backends, or `all`")
	hosts := flag.Int("hosts", 0, "run a cluster scale-out sweep over this many hosts behind the ToR switch")
	clos := flag.String("clos", "", "run a leaf–spine Clos ring over `hosts[:vmsPerHost]` (e.g. 256 or 256:10)")
	fastpath := flag.String("fastpath", "auto", "Clos flow fast-path mode for -clos: auto, on, or off")
	links := flag.String("links", "", "fabric link shape for -hosts as `rateMbps:latencyUs:queueKiB` (0 or empty fields keep defaults)")
	allocTable := flag.String("alloc-table", "", "print per-experiment allocation columns of this BENCH.json as markdown rows and exit")
	chaosSeed := flag.Uint64("chaos-seed", 1, "base seed for -soak iterations")
	soak := flag.Int("soak", 0, "run this many chaos-soak iterations (seeds chaos-seed..chaos-seed+N-1); exit nonzero on any invariant violation")
	serve := flag.String("serve", "", "serve the control-plane REST/JSON scenario API on this address (e.g. :8080)")
	flag.Parse()

	switch {
	case *serve != "":
		if err := runServe(*serve); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *allocTable != "":
		if err := printAllocTable(*allocTable); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *list:
		for _, s := range sriov.Experiments() {
			fmt.Printf("%-8s %2d pts  %s\n", s.ID, len(s.Points), s.Title)
		}
	case *soak > 0:
		os.Exit(runSoak(*chaosSeed, *soak, *quiet))
	case *backend != "":
		kinds := sriov.DatapathBackends()
		if *backend != "all" {
			kinds = strings.Split(*backend, ",")
		}
		specs, err := sriov.NFVExperiments(kinds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(runSuite(nil, specs, *parallel, *csv, *quiet, *benchOut, *goBench, *profile, *traceOut, *metricsOut))
	case *clos != "":
		closHosts, vms, err := parseClos(*clos)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		mode, err := sriov.ParseFastpathMode(*fastpath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec := sriov.ClosRingExperiment(closHosts, vms, mode)
		os.Exit(runSuite(nil, []sriov.Experiment{spec}, *parallel, *csv, *quiet, *benchOut, *goBench, *profile, *traceOut, *metricsOut))
	case *hosts > 0:
		link, err := parseLinks(*links)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec := sriov.ClusterScaleExperiment(*hosts, link)
		os.Exit(runSuite(nil, []sriov.Experiment{spec}, *parallel, *csv, *quiet, *benchOut, *goBench, *profile, *traceOut, *metricsOut))
	case *all:
		os.Exit(runSuite(nil, nil, *parallel, *csv, *quiet, *benchOut, *goBench, *profile, *traceOut, *metricsOut))
	case *fig != "":
		ids := strings.Split(*fig, ",")
		for i, id := range ids {
			if _, err := strconv.Atoi(id); err == nil {
				ids[i] = fmt.Sprintf("fig%02s", id)
			}
		}
		os.Exit(runSuite(ids, nil, *parallel, *csv, *quiet, *benchOut, *goBench, *profile, *traceOut, *metricsOut))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSuite runs the named experiments (all registered ones when both ids
// and custom are nil, or the ad-hoc custom specs such as a -hosts cluster
// sweep) through the worker-pool runner, prints each figure, and optionally
// emits profiles, a BENCH.json record, a Perfetto trace, and a metrics
// dump. Returns the process exit code.
func runSuite(ids []string, custom []sriov.Experiment, parallel int, csv, quiet bool, benchOut, goBenchPath, profilePrefix, traceOut, metricsOut string) int {
	stopCPU, err := startCPUProfile(profilePrefix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	opts := runner.Options{Parallel: parallel}
	if !quiet {
		opts.Progress = func(line string) { fmt.Fprintf(os.Stderr, "running %s\n", line) }
	}

	// Deltas around the run feed the BENCH totals.
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	packetsBefore := workload.TotalPackets()

	var sum *runner.Summary
	switch {
	case custom != nil:
		sum = runner.Run(custom, opts)
	case ids == nil:
		sum = runner.RunAll(opts)
	default:
		sum, err = runner.RunIDs(ids, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	packets := workload.TotalPackets() - packetsBefore

	stopCPU()
	if err := writeHeapProfile(profilePrefix); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	for _, r := range sum.Results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, r.Err)
			continue
		}
		if csv {
			fmt.Print(r.Figure.CSV())
		} else {
			fmt.Println(r.Figure.Markdown())
		}
	}

	if benchOut != "" {
		f := bench.Collect(sum, packets, msAfter.TotalAlloc-msBefore.TotalAlloc, msAfter.Mallocs-msBefore.Mallocs)
		if goBenchPath != "" {
			gb, err := mergeGoBench(goBenchPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			f.GoBench = gb
		}
		if err := bench.Write(benchOut, f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "bench: %s\nbench: wrote %s\n", f.Summary(), benchOut)
	}

	if metricsOut != "" {
		if err := writeMetrics(metricsOut, sum); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "obs: wrote %s\n", metricsOut)
	}

	if traceOut != "" {
		if err := writeTrace(traceOut, ids); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "obs: wrote %s (load in ui.perfetto.dev or chrome://tracing)\n", traceOut)
	}

	if failed := sum.Failed(); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed or had failing shape checks:\n", len(failed))
		for _, r := range failed {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "  %s: %v\n", r.ID, r.Err)
			} else {
				for _, c := range r.Figure.FailedChecks() {
					fmt.Fprintf(os.Stderr, "  %s: %s (%s)\n", r.ID, c.Name, c.Detail)
				}
			}
		}
		return 1
	}
	return 0
}

// printAllocTable emits one "| id | allocs | bytes |" markdown row per
// experiment in the given BENCH.json that carries allocation columns — the
// CI job-summary backing. Parallel runs record none (attribution needs one
// worker); the table then says so instead of rendering empty.
func printAllocTable(path string) error {
	f, err := bench.Read(path)
	if err != nil {
		return err
	}
	n := 0
	for _, e := range f.Experiments {
		if e.Allocs == 0 && e.AllocBytes == 0 {
			continue
		}
		n++
		fmt.Printf("| %s | %d | %d |\n", e.ID, e.Allocs, e.AllocBytes)
	}
	if n == 0 {
		fmt.Printf("| _none recorded (parallel run; use -parallel 1)_ | | |\n")
	}
	return nil
}

// writeMetrics dumps the suite's merged metrics registry as JSON.
func writeMetrics(path string, sum *runner.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sum.Obs.WriteJSON(f)
}

// writeTrace re-runs the first selected experiment that carries an Observe
// hook with a trace installed and exports its events and spans as Chrome
// trace-event JSON. The observational run is separate from the suite run —
// its metrics are discarded — so suite output stays byte-identical whether
// or not -trace-out is given.
func writeTrace(path string, ids []string) error {
	want := func(string) bool { return true }
	if ids != nil {
		sel := make(map[string]bool, len(ids))
		for _, id := range ids {
			sel[id] = true
		}
		want = func(id string) bool { return sel[id] }
	}
	for _, s := range sriov.Experiments() {
		if s.Observe == nil || !want(s.ID) {
			continue
		}
		tr := obs.NewTrace(65536, 32768)
		s.Observe(tr)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return obs.WriteChromeTrace(f, tr)
	}
	return fmt.Errorf("trace-out: no selected experiment has an observe hook (try -fig 7)")
}

// parseClos decodes the -clos value "hosts[:vmsPerHost]" (default 10
// VMs/host, the fig31 ring load).
func parseClos(s string) (hosts, vms int, err error) {
	vms = 10
	parts := strings.Split(s, ":")
	if len(parts) > 2 {
		return 0, 0, fmt.Errorf("-clos: want hosts[:vmsPerHost], got %q", s)
	}
	hosts, err = strconv.Atoi(parts[0])
	if err != nil || hosts < 1 {
		return 0, 0, fmt.Errorf("-clos: bad host count %q", parts[0])
	}
	if len(parts) == 2 {
		vms, err = strconv.Atoi(parts[1])
		if err != nil || vms < 1 {
			return 0, 0, fmt.Errorf("-clos: bad VMs-per-host %q", parts[1])
		}
	}
	return hosts, vms, nil
}

// parseLinks decodes the -links value "rateMbps:latencyUs:queueKiB".
// Trailing fields may be omitted; empty or zero fields keep the model's
// defaults (1 GbE, 5 µs, 256 KiB).
func parseLinks(s string) (sriov.LinkConfig, error) {
	var lc sriov.LinkConfig
	if s == "" {
		return lc, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) > 3 {
		return lc, fmt.Errorf("-links: want rateMbps:latencyUs:queueKiB, got %q", s)
	}
	vals := make([]int64, 3)
	for i, p := range parts {
		if p == "" {
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 0 {
			return lc, fmt.Errorf("-links: bad field %q in %q", p, s)
		}
		vals[i] = v
	}
	lc.Rate = sriov.BitRate(vals[0]) * sriov.Mbps
	lc.Latency = sriov.Duration(vals[1]) * (sriov.Millisecond / 1000)
	lc.QueueCap = sriov.Size(vals[2]) * 1024
	return lc, nil
}

func mergeGoBench(path string) ([]bench.GoBenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.ParseGoBench(f)
}

// startCPUProfile begins CPU profiling when prefix is non-empty; the returned
// stop function is a no-op otherwise.
func startCPUProfile(prefix string) (stop func(), err error) {
	if prefix == "" {
		return func() {}, nil
	}
	f, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile snapshots the heap when prefix is non-empty.
func writeHeapProfile(prefix string) error {
	if prefix == "" {
		return nil
	}
	f, err := os.Create(prefix + ".heap.pprof")
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // get up-to-date live-object statistics
	return pprof.WriteHeapProfile(f)
}
