// Package cpu models processor time. The simulator does not execute guest
// instructions; instead, every modeled activity (interrupt handler, VM-exit,
// packet copy, ...) charges a calibrated number of cycles to an Account.
// Utilization is then reported the way the paper reports it: percent of one
// hardware thread, so 499% means "about five threads busy".
//
// For components whose throughput is limited by a serial CPU (the Xen
// netback copy thread is the canonical example), Worker provides a saturable
// queue/server bound to the simulation engine.
package cpu

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/units"
)

// Account identifies who consumed CPU cycles and why. Domain is the
// consumer as the paper's stacked bars show it ("dom0", "xen", "guest-3",
// "native"); Category is the activity ("devicemodel", "isr", "vmexit",
// "copy", "stack", ...).
type Account struct {
	Domain   string
	Category string
}

func (a Account) String() string { return a.Domain + "/" + a.Category }

// System describes the physical processor of a simulated machine.
type System struct {
	Threads int             // hardware threads (the paper's server has 16)
	Freq    units.Frequency // clock (2.8 GHz in the paper)
}

// Meter accumulates cycles per account over a measurement window.
// Charging is a slice add: every account is bound once, at wiring time, to
// a dense slot (Bind), and the hot path charges the slot. Only Bind and
// the read side resolve an Account.
type Meter struct {
	sys      System
	cycles   []units.Cycles // by slot
	accounts []Account      // by slot
	slots    map[Account]Slot
	started  units.Time
}

// Slot is an account's dense index in one Meter, returned by Bind.
type Slot int32

// NewMeter returns a meter for the given system with the window starting at
// time zero.
func NewMeter(sys System) *Meter {
	return &Meter{sys: sys, slots: make(map[Account]Slot)}
}

// System reports the system this meter measures.
func (m *Meter) System() System { return m.sys }

// Bind returns the slot charging a, allocating it on the account's first
// bind; binding an account again returns the same slot.
func (m *Meter) Bind(a Account) Slot {
	if s, ok := m.slots[a]; ok {
		return s
	}
	s := Slot(len(m.accounts))
	m.slots[a] = s
	m.accounts = append(m.accounts, a)
	m.cycles = append(m.cycles, 0)
	return s
}

// Charge adds cycles to a bound account. Negative charges panic: they are
// always a modeling bug.
func (m *Meter) Charge(s Slot, c units.Cycles) {
	if c < 0 {
		panic(fmt.Sprintf("cpu: negative charge %d to %v", c, m.accounts[s]))
	}
	m.cycles[s] += c
}

// ResetWindow discards accumulated cycles and marks now as the start of a
// new measurement window. Bound slots stay bound.
func (m *Meter) ResetWindow(now units.Time) {
	clear(m.cycles)
	m.started = now
}

// Cycles reports the cycles charged to a since the window started.
func (m *Meter) Cycles(a Account) units.Cycles {
	if s, ok := m.slots[a]; ok {
		return m.cycles[s]
	}
	return 0
}

// DomainCycles reports total cycles charged to a domain across categories.
func (m *Meter) DomainCycles(domain string) units.Cycles {
	var t units.Cycles
	for s, a := range m.accounts {
		if a.Domain == domain {
			t += m.cycles[s]
		}
	}
	return t
}

// TotalCycles reports all cycles charged in the window.
func (m *Meter) TotalCycles() units.Cycles {
	var t units.Cycles
	for _, c := range m.cycles {
		t += c
	}
	return t
}

// Utilization reports the percent-of-one-thread utilization of a domain over
// the window ending at now. 100 means one thread fully busy.
func (m *Meter) Utilization(domain string, now units.Time) float64 {
	return m.utilization(m.DomainCycles(domain), now)
}

// TotalUtilization reports percent-of-one-thread utilization summed over all
// domains.
func (m *Meter) TotalUtilization(now units.Time) float64 {
	return m.utilization(m.TotalCycles(), now)
}

func (m *Meter) utilization(c units.Cycles, now units.Time) float64 {
	elapsed := now.Sub(m.started)
	if elapsed <= 0 {
		return 0
	}
	budget := m.sys.Freq.CyclesIn(elapsed)
	if budget <= 0 {
		return 0
	}
	return float64(c) / float64(budget) * 100
}

// Domains reports every domain with a bound account, sorted.
func (m *Meter) Domains() []string {
	set := make(map[string]bool)
	for _, a := range m.accounts {
		set[a.Domain] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
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
// to the worker's account.
//
// The steady-state submit→serve→complete cycle allocates nothing: waiting
// jobs live in a growable ring, the job in service in a field, and its
// completion fires through a method value and an event name both built
// once in NewWorker.
type Worker struct {
	eng      *sim.Engine
	meter    *Meter
	slot     Slot
	queueCap int
	queue    jobRing
	cur      Job // the job in service; valid while busy
	busy     bool
	evName   string
	done     func()
	// Overload tracks rejected jobs for diagnostics.
	Rejected int64
	Served   int64
}

// NewWorker creates a worker charging the given account. queueCap bounds the
// number of queued (not yet started) jobs; 0 means unbounded.
func NewWorker(eng *sim.Engine, meter *Meter, account Account, queueCap int) *Worker {
	w := &Worker{eng: eng, meter: meter, slot: meter.Bind(account), queueCap: queueCap,
		evName: "worker:" + account.String()}
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
		w.Rejected++
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
	w.eng.After(w.meter.sys.Freq.DurationOf(w.cur.Cost), w.evName, w.done)
}

// complete finishes the job in service and starts the next one. The slot
// is cleared before Run so the worker never pins a finished job's func.
func (w *Worker) complete() {
	j := w.cur
	w.cur = Job{}
	w.meter.Charge(w.slot, j.Cost)
	w.Served++
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

// NewPool creates n workers charging accounts derived from base by suffixing
// the worker index to the category.
func NewPool(eng *sim.Engine, meter *Meter, base Account, n, queueCap int) *Pool {
	if n <= 0 {
		panic("cpu: pool needs at least one worker")
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		acct := Account{Domain: base.Domain, Category: fmt.Sprintf("%s.%d", base.Category, i)}
		p.workers = append(p.workers, NewWorker(eng, meter, acct, queueCap))
	}
	return p
}

// Size reports the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

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

// Rejected reports total rejected jobs across workers.
func (p *Pool) Rejected() int64 {
	var t int64
	for _, w := range p.workers {
		t += w.Rejected
	}
	return t
}

// Served reports total served jobs across workers.
func (p *Pool) Served() int64 {
	var t int64
	for _, w := range p.workers {
		t += w.Served
	}
	return t
}
