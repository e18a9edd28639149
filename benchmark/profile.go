package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// layers are the program's modules, repro/internal/<layer>, that the
// workloads execute.
var layers = []string{
	"sim", "pcie", "iommu", "interrupts", "nic", "vmm", "cpu", "drivers",
	"guest", "netstack", "mem", "workload", "obs", "stats", "units", "model",
	"fault", "cluster", "migration", "ctlplane", "chaos", "core",
}

// Buckets for samples outside every layer: the GC's background workers,
// and everything else (the benchmark itself, the scheduler).
const (
	gcBucket    = "runtime.gc"
	otherBucket = "other"
)

const internalPrefix = "repro/internal/"

// stack is one sampled call stack of a `go tool pprof -traces` listing.
type stack struct {
	value  time.Duration
	frames []string // innermost first
}

// profileStacks merges the CPU profiles with `go tool pprof -traces` and
// parses the listing.
func profileStacks(files []string) (total time.Duration, stacks []stack, err error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads a `go tool pprof -traces` listing: the header's
// sampled total, then stacks separated by dashed lines, each starting with
// its sampled time beside the innermost frame.
func parseTraces(r io.Reader) (total time.Duration, stacks []stack, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inBlock = true
			stacks = append(stacks, stack{})
			continue
		case !inBlock:
			if _, rest, ok := strings.Cut(line, "Total samples = "); ok {
				v, _, _ := strings.Cut(rest, " ")
				if total, err = parsePprofDuration(v); err != nil {
					return 0, nil, err
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		st := &stacks[len(stacks)-1]
		if len(st.frames) == 0 {
			// The first line of a stack carries its sampled time.
			v, err := parsePprofDuration(fields[0])
			if err != nil {
				return 0, nil, fmt.Errorf("stack %d: %w", len(stacks), err)
			}
			st.value = v
			fields = fields[1:]
		}
		if frame := strings.TrimSuffix(strings.Join(fields, " "), " (inline)"); frame != "" {
			st.frames = append(st.frames, frame)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	// The final separator opens no stack.
	if n := len(stacks); n > 0 && len(stacks[n-1].frames) == 0 {
		stacks = stacks[:n-1]
	}
	return total, stacks, nil
}

// parsePprofDuration parses pprof's time values ("10ms", "1.50s", and
// "2.10mins" or "1.02hrs" for long profiles).
func parsePprofDuration(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof duration %q: %w", s, err)
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof duration %q: %w", s, err)
	}
	return d, nil
}

// bucketOf names what a stack's sample is charged to: the innermost frame
// in a repro/internal module, so runtime, map and malloc frames beneath it
// charge to that layer; else the GC when a background GC worker is on the
// stack; else other. A module outside layers also counts as other.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if l, ok := layerOf(f); ok {
			for _, known := range layers {
				if l == known {
					return l
				}
			}
			return otherBucket
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.bgsweep") {
			return gcBucket
		}
	}
	return otherBucket
}

// layerOf reports the repro/internal module a frame belongs to.
func layerOf(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// attribute sums sampled seconds per bucket: self time charges each stack
// to bucketOf; inclusive time charges it to every layer on the stack once.
func attribute(stacks []stack) (self, incl map[string]float64) {
	self = make(map[string]float64)
	incl = make(map[string]float64)
	for _, st := range stacks {
		v := st.value.Seconds()
		self[bucketOf(st.frames)] += v
		seen := make(map[string]bool)
		for _, f := range st.frames {
			if l, ok := layerOf(f); ok && !seen[l] {
				seen[l] = true
				incl[l] += v
			}
		}
	}
	return self, incl
}
