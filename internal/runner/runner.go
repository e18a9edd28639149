// Package runner executes registered experiments on a worker pool.
//
// The unit of scheduling is a task: either a whole experiment, or — for
// experiments that decompose (experiments.Spec.Points) — one independent
// series point, such as a single VM count of a scalability sweep or one
// coalescing policy of a sweep. Tasks are sharded across N goroutines;
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
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
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
	Title  string
	Figure *report.Figure
	// Wall is the serial-equivalent cost: the summed wall time of the
	// experiment's tasks (not first-start-to-last-end, which depends on
	// what else shared the pool).
	Wall time.Duration
	// Tasks is how many tasks the experiment decomposed into (1 if whole).
	Tasks int
	// Allocs and AllocBytes are the heap allocations the experiment's tasks
	// performed (runtime.MemStats deltas summed over tasks). They are only
	// recorded on serial runs (Parallel == 1), where per-task attribution
	// is exact — Go has no per-goroutine allocation counters — and stay
	// zero otherwise.
	Allocs     uint64
	AllocBytes uint64
	// Err is set if any task or the assembly panicked; Figure is then nil.
	Err error
}

// Summary aggregates one run of a set of experiments.
type Summary struct {
	Results []Result
	// Parallel is the worker count actually used.
	Parallel int
	// Wall is the harness wall-clock for the whole run.
	Wall time.Duration
	// Tasks is the total task count.
	Tasks int
	// TaskWall is the distribution of per-task wall times, in seconds.
	TaskWall stats.Welford
	// Events is the number of simulation events executed during the run
	// (from the engine's process-wide counter; runs sharing a process with
	// other simulation work will overcount).
	Events uint64
	// Obs is the run's merged metrics registry: every point task runs with
	// its own private registry, and they are merged in task order after the
	// pool drains, so the merged contents are byte-identical at any
	// parallelism. Whole (non-decomposed) experiments do not contribute.
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

// task is one unit of scheduling.
type task struct {
	idx   int // index into the task list (and taskRegs)
	spec  int // index into specs
	point int // index into Points, or -1 for a whole experiment
}

// Run executes the given experiments on a pool of opts.Parallel workers and
// returns one Result per spec, in input order.
func Run(specs []experiments.Spec, opts Options) *Summary {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	sum := &Summary{Results: make([]Result, len(specs)), Parallel: workers}
	pointRes := make([][]any, len(specs))
	var tasks []task
	for i, s := range specs {
		sum.Results[i] = Result{ID: s.ID, Title: s.Title}
		if s.Parallelizable() {
			pointRes[i] = make([]any, len(s.Points))
			for j := range s.Points {
				tasks = append(tasks, task{idx: len(tasks), spec: i, point: j})
			}
		} else {
			tasks = append(tasks, task{idx: len(tasks), spec: i, point: -1})
		}
	}
	sum.Tasks = len(tasks)
	taskRegs := make([]*obs.Registry, len(tasks))

	start := time.Now()
	eventsBefore := sim.TotalProcessed()

	// mu guards the per-experiment accumulators (Wall, Tasks, Err), the
	// task-wall distribution, and Progress. Point results need no lock:
	// each slot has exactly one writer, and the WaitGroup orders the reads.
	var mu sync.Mutex
	ch := make(chan task)
	var wg sync.WaitGroup
	trackAllocs := workers == 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One event arena per worker goroutine: consecutive points on
			// this worker reuse each other's event storage. Arenas are never
			// shared across goroutines.
			arena := sim.NewArena()
			for t := range ch {
				runTask(specs, t, pointRes, taskRegs, sum, &mu, opts.Progress, arena, trackAllocs)
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()

	// Merge the per-task registries in task order — counters and histogram
	// buckets are sums, but gauge overwrites and float arithmetic are
	// order-sensitive, so a fixed order keeps metrics output deterministic.
	sum.Obs = obs.NewRegistry()
	for _, reg := range taskRegs {
		sum.Obs.Merge(reg)
	}

	// Assemble decomposed figures in input order, on this goroutine.
	for i, s := range specs {
		r := &sum.Results[i]
		if r.Err != nil || !s.Parallelizable() {
			continue
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.Err = fmt.Errorf("%s: assembly panicked: %v", s.ID, p)
					r.Figure = nil
				}
			}()
			r.Figure = s.Build(pointRes[i])
		}()
	}

	sum.Wall = time.Since(start)
	sum.Events = sim.TotalProcessed() - eventsBefore
	return sum
}

// RunAll runs every registered experiment.
func RunAll(opts Options) *Summary { return Run(experiments.All(), opts) }

// RunIDs runs the named experiments (sorted, deduplicated). Unknown ids
// return an error.
func RunIDs(ids []string, opts Options) (*Summary, error) {
	seen := map[string]bool{}
	var specs []experiments.Spec
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		s, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("runner: unknown experiment %q", id)
		}
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return Run(specs, opts), nil
}

// runTask executes one task with panic isolation: a panicking point marks
// its experiment failed but never takes down the pool or the other
// experiments.
func runTask(specs []experiments.Spec, t task, pointRes [][]any, taskRegs []*obs.Registry, sum *Summary, mu *sync.Mutex, progress func(string), arena *sim.Arena, trackAllocs bool) {
	s := specs[t.spec]
	label := s.ID
	if t.point >= 0 {
		label = fmt.Sprintf("%s [%s]", s.ID, s.Points[t.point].Label)
	}
	if progress != nil {
		mu.Lock()
		progress(label)
		mu.Unlock()
	}
	var m0 runtime.MemStats
	if trackAllocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	defer func() {
		wall := time.Since(start)
		p := recover()
		var allocs, allocBytes uint64
		if trackAllocs {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			allocs, allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		}
		mu.Lock()
		r := &sum.Results[t.spec]
		r.Wall += wall
		r.Tasks++
		r.Allocs += allocs
		r.AllocBytes += allocBytes
		sum.TaskWall.Observe(wall.Seconds())
		if p != nil && r.Err == nil {
			r.Err = fmt.Errorf("%s: panic: %v", label, p)
		}
		mu.Unlock()
	}()
	if t.point < 0 {
		fig := s.Run()
		mu.Lock()
		sum.Results[t.spec].Figure = fig
		mu.Unlock()
		return
	}
	p := s.Points[t.point]
	// The point gets a private registry (slot has one writer; the
	// WaitGroup orders the merge's reads).
	reg := obs.NewRegistry()
	taskRegs[t.idx] = reg
	pointRes[t.spec][t.point] = p.Run(experiments.PointSeed(s.ID, p.Label), reg, arena)
}
