package bench

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// GoBenchResult is one parsed `go test -bench` result line.
type GoBenchResult struct {
	// Name is the benchmark name without the -<GOMAXPROCS> suffix go test
	// appends when GOMAXPROCS > 1 ("BenchmarkFig16Scale-8" is recorded as
	// "BenchmarkFig16Scale"), so records taken at different CPU counts
	// compare by name. The file header records GOMAXPROCS.
	Name string `json:"name"`
	// N is the iteration count the framework settled on.
	N int64 `json:"n"`
	// Metrics maps unit → value for every value/unit pair on the line:
	// ns/op, B/op, allocs/op, and any b.ReportMetric extras (Mbps/op, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// ParseGoBench extracts benchmark result lines from `go test -bench` output.
// Lines that don't look like results (PASS, ok, goos:, logs) are skipped, so
// the raw test output can be piped in unfiltered.
func ParseGoBench(r io.Reader) ([]GoBenchResult, error) {
	var out []GoBenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Shape: Benchmark<Name>-<cpu> <N> <value> <unit> [<value> <unit>]...
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := GoBenchResult{Name: trimProcs(fields[0]), N: n, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			res.Metrics[fields[i+1]] = v
		}
		if ok && len(res.Metrics) > 0 {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// trimProcs drops a trailing -<digits> GOMAXPROCS suffix from a benchmark
// name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
