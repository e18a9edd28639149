// Package runner executes registered experiments on a worker pool.
//
// The unit of scheduling is a task: one independent point of an experiment
// (experiments.Spec.Points), such as a single VM count of a scalability
// sweep or one coalescing policy of a sweep. Points that carry the same Key
// are planned as one task, led by the first of them in input order; the
// others reuse its result, and its registry is merged once. Tasks are
// sharded across N goroutines;
// every task builds its own testbeds, so every simulation engine lives on
// exactly one goroutine, and every engine is seeded from a stable per-point
// seed (experiments.PointSeed) that depends only on what the task is.
// Figures are assembled from point results in registration order after all
// of an experiment's tasks finish. The result is bit-identical output at
// any parallelism: -parallel 1 and -parallel 8 render the same bytes.
package runner

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

// Options configures a run.
type Options struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Progress, if non-nil, receives one line per started task ("fig15
	// [30]") and is called from worker goroutines under a lock.
	Progress func(line string)
}

// Result is one experiment's outcome.
type Result struct {
	ID     string
	Figure *report.Figure
	// Err is set if any of the experiment's points (including one it shared
	// with another experiment) or its assembly panicked; Figure is then nil.
	Err error
}

// Summary aggregates one run of a set of experiments.
type Summary struct {
	Results []Result
	// Events is the number of simulation events the run's points executed,
	// summed over the workers' event arenas.
	Events uint64
	// Obs is the run's merged metrics registry: every task runs with its
	// own private registry, and they are merged in point order after the
	// pool drains — a shared task's registry once, at its leader — so the
	// merged contents are byte-identical at any parallelism and count every
	// simulation exactly once.
	Obs *obs.Registry
}

// Failed lists the results that errored or whose shape checks failed.
func (s *Summary) Failed() []Result {
	var out []Result
	for _, r := range s.Results {
		if r.Err != nil || (r.Figure != nil && !r.Figure.AllChecksPass()) {
			out = append(out, r)
		}
	}
	return out
}

// task is one unit of scheduling — an unkeyed point, or the point that
// leads its Key — and its outcome. The outcome has exactly one writer, the
// worker that ran the task; the WaitGroup orders the reads.
type task struct {
	spec, point int // indices into specs and its Points
	res         any
	reg         *obs.Registry
	err         error
}

// Run executes the given experiments on a pool of opts.Parallel workers and
// returns one Result per spec, in input order.
func Run(specs []experiments.Spec, opts Options) *Summary {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Plan: every point maps to the task that computes it. A keyed point
	// whose key an earlier point already claimed reuses that task.
	sum := &Summary{Results: make([]Result, len(specs))}
	var tasks []task
	slots := make([][]int, len(specs)) // slots[spec][point] = task index
	leaders := map[string]int{}
	for i, s := range specs {
		sum.Results[i] = Result{ID: s.ID}
		slots[i] = make([]int, len(s.Points))
		for j, p := range s.Points {
			t, ok := leaders[p.Key]
			if !ok {
				t = len(tasks)
				tasks = append(tasks, task{spec: i, point: j})
				if p.Key != "" {
					leaders[p.Key] = t
				}
			}
			slots[i][j] = t
		}
	}

	// mu serializes Progress.
	var mu sync.Mutex
	ch := make(chan *task)
	var wg sync.WaitGroup
	// One event arena per worker goroutine: consecutive points on this
	// worker reuse each other's event storage, and the arena counts the
	// events they execute. Arenas are never shared across goroutines.
	arenas := make([]*sim.Arena, workers)
	for w := range arenas {
		arena := sim.NewArena()
		arenas[w] = arena
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				t.res, t.reg, t.err = runTask(specs[t.spec], t.point, &mu, opts.Progress, arena)
			}
		}()
	}
	for i := range tasks {
		ch <- &tasks[i]
	}
	close(ch)
	wg.Wait()

	// Hand every point its task's outcome and merge each task's registry in
	// point order, once, at the point that leads it — counters and
	// histogram buckets are sums, but gauge overwrites and float arithmetic
	// are order-sensitive, so a fixed order keeps metrics output
	// deterministic. Then assemble, on this goroutine.
	sum.Obs = obs.NewRegistry()
	for i, s := range specs {
		r := &sum.Results[i]
		results := make([]any, len(s.Points))
		for j, ti := range slots[i] {
			t := &tasks[ti]
			results[j] = t.res
			if t.spec == i && t.point == j {
				sum.Obs.Merge(t.reg)
			}
			if t.err != nil && r.Err == nil {
				r.Err = t.err
			}
		}
		if r.Err != nil {
			continue
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.Err = fmt.Errorf("%s: assembly panicked: %v", s.ID, p)
					r.Figure = nil
				}
			}()
			r.Figure = s.Build(results)
		}()
	}

	for _, a := range arenas {
		sum.Events += a.Executed()
	}
	return sum
}

// RunIDs runs the named experiments (see Specs).
func RunIDs(ids []string, opts Options) (*Summary, error) {
	specs, err := Specs(ids)
	if err != nil {
		return nil, err
	}
	return Run(specs, opts), nil
}

// Specs resolves experiment ids to their specs, sorted and deduplicated.
// An unknown id returns an error that names every valid one.
func Specs(ids []string) ([]experiments.Spec, error) {
	seen := map[string]bool{}
	var specs []experiments.Spec
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		s, err := experiments.ByID(id)
		if err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return specs, nil
}

// runTask runs one point of s on a private registry, with panic isolation:
// a panicking point fails the experiments that use it but never takes down
// the pool or the others.
func runTask(s experiments.Spec, point int, mu *sync.Mutex, progress func(string), arena *sim.Arena) (res any, reg *obs.Registry, err error) {
	p := s.Points[point]
	label := fmt.Sprintf("%s [%s]", s.ID, p.Label)
	if progress != nil {
		mu.Lock()
		progress(label)
		mu.Unlock()
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s: panic: %v", label, v)
		}
	}()
	reg = obs.NewRegistry()
	return p.Run(experiments.PointSeed(s.ID, p.Label), reg, arena), reg, nil
}
