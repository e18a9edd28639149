// Package cpu models processor time. The simulator does not execute guest
// instructions; instead, every modeled activity (interrupt handler, VM-exit,
// packet copy, ...) charges a calibrated number of cycles to the ledger of
// the domain that spent them. Utilization is then reported the way the
// paper reports it: percent of one hardware thread per domain, so 499%
// means "about five threads busy".
//
// For components whose throughput is limited by a serial CPU (the Xen
// netback copy thread is the canonical example), Worker provides a saturable
// queue/server bound to the simulation engine.
package cpu

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
)

// Meter accumulates cycles per domain over a measurement window. Each
// consumer the paper's stacked bars show ("dom0", "xen", "guest-3",
// "native") owns one ledger, bound once when the consumer is created;
// charging and reading index it, so the hot path is a slice add.
type Meter struct {
	cycles  []units.Cycles // by ledger
	names   []string       // by ledger
	started units.Time
}

// Ledger is a domain's dense index in one Meter, returned by Meter.Ledger.
type Ledger int32

// NewMeter returns a meter for the paper's server (model.ServerFreq) with
// the window starting at time zero.
func NewMeter() *Meter {
	return &Meter{}
}

// Ledger returns the ledger of the named domain, creating it on the name's
// first use: two domains that share a name share a ledger.
func (m *Meter) Ledger(name string) Ledger {
	for l, n := range m.names {
		if n == name {
			return Ledger(l)
		}
	}
	m.names = append(m.names, name)
	m.cycles = append(m.cycles, 0)
	return Ledger(len(m.names) - 1)
}

// Charge adds cycles to a ledger. Negative charges panic: they are always
// a modeling bug.
func (m *Meter) Charge(l Ledger, c units.Cycles) {
	if c < 0 {
		panic(fmt.Sprintf("cpu: negative charge %d to %s", c, m.names[l]))
	}
	m.cycles[l] += c
}

// ResetWindow discards accumulated cycles and marks now as the start of a
// new measurement window. Ledgers stay bound.
func (m *Meter) ResetWindow(now units.Time) {
	clear(m.cycles)
	m.started = now
}

// DomainCycles reports the cycles charged to a ledger since the window
// started.
func (m *Meter) DomainCycles(l Ledger) units.Cycles { return m.cycles[l] }

// TotalCycles reports all cycles charged in the window.
func (m *Meter) TotalCycles() units.Cycles {
	var t units.Cycles
	for _, c := range m.cycles {
		t += c
	}
	return t
}

// Utilization reports the percent-of-one-thread utilization of a ledger
// over the window ending at now. 100 means one thread fully busy.
func (m *Meter) Utilization(l Ledger, now units.Time) float64 {
	return m.utilization(m.DomainCycles(l), now)
}

// TotalUtilization reports percent-of-one-thread utilization summed over all
// ledgers.
func (m *Meter) TotalUtilization(now units.Time) float64 {
	return m.utilization(m.TotalCycles(), now)
}

func (m *Meter) utilization(c units.Cycles, now units.Time) float64 {
	elapsed := now.Sub(m.started)
	if elapsed <= 0 {
		return 0
	}
	budget := model.ServerFreq.CyclesIn(elapsed)
	if budget <= 0 {
		return 0
	}
	return float64(c) / float64(budget) * 100
}

// Job is one unit of work submitted to a Worker.
type Job struct {
	Cost units.Cycles // service demand
	Run  func()       // executed when service completes (may be nil)
}

// Worker models a single CPU thread that serves a FIFO queue of jobs, e.g.
// one netback copy thread. Service time is Cost cycles at the system clock.
// When the queue is full new jobs are rejected (the caller decides whether
// that means a dropped packet or backpressure). All service time is charged
// to the worker's ledger.
//
// The steady-state submit→serve→complete cycle allocates nothing: waiting
// jobs live in a growable ring, the job in service in a field, and its
// completion fires through a method value and an event name both built
// once in NewWorker.
type Worker struct {
	eng      *sim.Engine
	meter    *Meter
	ledger   Ledger
	queueCap int
	queue    jobRing
	cur      Job // the job in service; valid while busy
	busy     bool
	evName   string
	done     func()
}

// NewWorker creates a worker charging the given ledger. queueCap bounds the
// number of queued (not yet started) jobs; 0 means unbounded.
func NewWorker(eng *sim.Engine, meter *Meter, l Ledger, queueCap int) *Worker {
	w := &Worker{eng: eng, meter: meter, ledger: l, queueCap: queueCap,
		evName: "worker:" + meter.names[l]}
	w.done = w.complete
	return w
}

// QueueLen reports the number of jobs waiting (not including the one being
// served).
func (w *Worker) QueueLen() int { return w.queue.n }

// Busy reports whether a job is currently in service.
func (w *Worker) Busy() bool { return w.busy }

// Submit enqueues a job, reporting false if the queue is full.
func (w *Worker) Submit(j Job) bool {
	if w.queueCap > 0 && w.queue.n >= w.queueCap {
		return false
	}
	w.queue.push(j)
	if !w.busy {
		w.startNext()
	}
	return true
}

func (w *Worker) startNext() {
	if w.queue.n == 0 {
		w.busy = false
		return
	}
	w.cur = w.queue.pop()
	w.busy = true
	w.eng.After(model.ServerFreq.DurationOf(w.cur.Cost), w.evName, w.done)
}

// complete finishes the job in service and starts the next one. The field
// is cleared before Run so the worker never pins a finished job's func.
func (w *Worker) complete() {
	j := w.cur
	w.cur = Job{}
	w.meter.Charge(w.ledger, j.Cost)
	if j.Run != nil {
		j.Run()
	}
	w.startNext()
}

// jobRing is a FIFO of jobs backed by a growable circular buffer, so a
// worker's steady-state queue reuses slots instead of re-growing a slice.
type jobRing struct {
	buf  []Job
	head int
	n    int
}

func (r *jobRing) push(j Job) {
	if r.n == len(r.buf) {
		grown := make([]Job, 2*len(r.buf)+16)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = j
	r.n++
}

// pop removes and returns the oldest job, clearing its slot.
func (r *jobRing) pop() Job {
	j := r.buf[r.head]
	r.buf[r.head] = Job{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return j
}

// Pool is a fixed set of workers with round-robin dispatch, modeling the
// multi-threaded netback enhancement of §6.5.
type Pool struct {
	workers []*Worker
	next    int
}

// NewPool creates n workers charging one ledger.
func NewPool(eng *sim.Engine, meter *Meter, l Ledger, n, queueCap int) *Pool {
	if n <= 0 {
		panic("cpu: pool needs at least one worker")
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, NewWorker(eng, meter, l, queueCap))
	}
	return p
}

// Submit dispatches a job to the least-loaded worker (ties broken round
// robin), reporting false if that worker's queue is full.
func (p *Pool) Submit(j Job) bool {
	best := -1
	bestLen := 1 << 30
	for i := 0; i < len(p.workers); i++ {
		k := (p.next + i) % len(p.workers)
		l := p.workers[k].QueueLen()
		if p.workers[k].Busy() {
			l++
		}
		if l < bestLen {
			bestLen = l
			best = k
		}
	}
	p.next = (best + 1) % len(p.workers)
	return p.workers[best].Submit(j)
}

// QueuedJobs reports jobs waiting (and in service) across workers.
func (p *Pool) QueuedJobs() int {
	n := 0
	for _, w := range p.workers {
		n += w.QueueLen()
		if w.Busy() {
			n++
		}
	}
	return n
}
