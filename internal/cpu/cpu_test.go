package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
)

// newWorker returns a worker charging dom0 on a fresh meter.
func newWorker(eng *sim.Engine, queueCap int) *Worker {
	m := NewMeter()
	return NewWorker(eng, m, m.Ledger("dom0"), queueCap)
}

func TestMeterUtilization(t *testing.T) {
	m := NewMeter()
	m.ResetWindow(0)
	// Charge half a thread-second of cycles over one second.
	dom0 := m.Ledger("dom0")
	m.Charge(dom0, model.ServerFreq.CyclesIn(500*units.Millisecond))
	now := units.Time(units.Second)
	if got := m.Utilization(dom0, now); got < 49.9 || got > 50.1 {
		t.Fatalf("utilization = %v, want 50", got)
	}
	if got := m.TotalUtilization(now); got < 49.9 || got > 50.1 {
		t.Fatalf("total = %v", got)
	}
	if got := m.Utilization(m.Ledger("guest-0"), now); got != 0 {
		t.Fatalf("uncharged domain = %v, want 0", got)
	}
}

func TestMeterBreakdownByDomain(t *testing.T) {
	m := NewMeter()
	m.ResetWindow(0)
	dom0, xen := m.Ledger("dom0"), m.Ledger("xen")
	m.Charge(dom0, 100)
	m.Charge(dom0, 200)
	m.Charge(xen, 50)
	if m.DomainCycles(dom0) != 300 || m.DomainCycles(xen) != 50 {
		t.Fatalf("dom0, xen cycles = %d, %d; want 300, 50", m.DomainCycles(dom0), m.DomainCycles(xen))
	}
	if m.TotalCycles() != 350 {
		t.Fatalf("total = %d", m.TotalCycles())
	}
	if len(m.names) != 2 || m.names[dom0] != "dom0" || m.names[xen] != "xen" {
		t.Fatalf("ledgers = %v", m.names)
	}
}

func TestMeterResetWindow(t *testing.T) {
	m := NewMeter()
	l := m.Ledger("dom0")
	m.Charge(l, 100)
	m.ResetWindow(units.Time(units.Second))
	if m.TotalCycles() != 0 || m.DomainCycles(l) != 0 {
		t.Fatal("reset should clear cycles")
	}
	// The ledger stays bound across the reset and charges the new window.
	m.Charge(l, 7)
	if m.DomainCycles(l) != 7 || m.TotalCycles() != 7 {
		t.Fatalf("post-reset cycles = %d, want 7", m.DomainCycles(l))
	}
	m.ResetWindow(units.Time(units.Second))
	if m.started != units.Time(units.Second) {
		t.Fatal("window start not recorded")
	}
	// Utilization with zero elapsed is zero, not NaN.
	if got := m.TotalUtilization(units.Time(units.Second)); got != 0 {
		t.Fatalf("zero window utilization = %v", got)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	m := NewMeter()
	defer func() {
		if recover() == nil {
			t.Error("negative charge should panic")
		}
	}()
	m.Charge(m.Ledger("x"), -1)
}

func TestWorkerServesFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter()
	dom0 := m.Ledger("dom0")
	w := NewWorker(eng, m, dom0, 0)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		w.Submit(Job{Cost: 2800, Run: func() { order = append(order, i) }}) // 1 µs each
	}
	eng.RunUntil(sim.Forever)
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	// 3 jobs × 1 µs serial.
	if eng.Now() != units.Time(3*units.Microsecond) {
		t.Fatalf("finished at %v, want 3µs", eng.Now())
	}
	if m.DomainCycles(dom0) != 3*2800 {
		t.Fatal("cycles not charged")
	}
}

func TestWorkerQueueCap(t *testing.T) {
	eng := sim.NewEngine(1)
	w := newWorker(eng, 2)
	ok, served := 0, 0
	for i := 0; i < 5; i++ {
		if w.Submit(Job{Cost: 2800, Run: func() { served++ }}) {
			ok++
		}
	}
	// First starts service immediately, two queue, rest rejected.
	if ok != 3 || !w.Busy() || w.QueueLen() != 2 {
		t.Fatalf("accepted %d, busy %v, queued %d; want 3, true, 2", ok, w.Busy(), w.QueueLen())
	}
	eng.RunUntil(sim.Forever)
	if served != 3 {
		t.Fatalf("served = %d, want 3", served)
	}
}

func TestWorkerSaturation(t *testing.T) {
	// A worker offered more than 1 thread of work stays ~100% utilized.
	eng := sim.NewEngine(1)
	m := NewMeter()
	m.ResetWindow(0)
	dom0 := m.Ledger("dom0")
	w := NewWorker(eng, m, dom0, 0)
	// Submit 2 thread-seconds of work.
	perJob := model.ServerFreq.CyclesIn(units.Millisecond)
	for i := 0; i < 2000; i++ {
		w.Submit(Job{Cost: perJob})
	}
	end := eng.RunUntil(units.Time(units.Second))
	util := m.Utilization(dom0, end)
	if util < 99 || util > 101 {
		t.Fatalf("saturated worker utilization = %v, want ~100", util)
	}
}

func TestPoolSpreadsLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter()
	m.ResetWindow(0)
	dom0 := m.Ledger("dom0")
	p := NewPool(eng, m, dom0, 4, 0)
	perJob := model.ServerFreq.CyclesIn(units.Millisecond)
	// 3 thread-seconds of work across 4 workers in 1 second: ~75% each.
	served, rejected := 0, 0
	for i := 0; i < 3000; i++ {
		if !p.Submit(Job{Cost: perJob, Run: func() { served++ }}) {
			rejected++
		}
	}
	end := eng.RunUntil(units.Time(units.Second))
	util := m.Utilization(dom0, end)
	if util < 295 || util > 305 {
		t.Fatalf("pool utilization = %v, want ~300", util)
	}
	if served != 3000 || rejected != 0 {
		t.Fatalf("served %d, rejected %d; want 3000, 0", served, rejected)
	}
}

func TestPoolBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size pool should panic")
		}
	}()
	m := NewMeter()
	NewPool(sim.NewEngine(1), m, m.Ledger("dom0"), 0, 0)
}

func TestUtilizationAdditiveProperty(t *testing.T) {
	// Utilization of the total equals the sum of per-domain utilizations.
	prop := func(raw []uint16) bool {
		m := NewMeter()
		m.ResetWindow(0)
		domains := []string{"dom0", "xen", "guest-1", "guest-2"}
		for i, r := range raw {
			m.Charge(m.Ledger(domains[i%len(domains)]), units.Cycles(r)*1000)
		}
		now := units.Time(units.Second)
		var sum float64
		for _, d := range domains {
			sum += m.Utilization(m.Ledger(d), now)
		}
		diff := sum - m.TotalUtilization(now)
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolQueuedJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter()
	p := NewPool(eng, m, m.Ledger("dom0"), 2, 0)
	if p.QueuedJobs() != 0 {
		t.Fatal("fresh pool should be empty")
	}
	for i := 0; i < 5; i++ {
		p.Submit(Job{Cost: model.ServerFreq.CyclesIn(units.Millisecond)})
	}
	if got := p.QueuedJobs(); got != 5 {
		t.Fatalf("queued = %d, want 5 (2 busy + 3 waiting)", got)
	}
	eng.RunUntil(sim.Forever)
	if p.QueuedJobs() != 0 {
		t.Fatal("pool should drain")
	}
}

// TestWorkerRing drives a worker's job ring through wrap-around, growth
// while wrapped, the queueCap rejection rule and unbounded growth, and
// checks that served and popped jobs release their Run funcs.
func TestWorkerRing(t *testing.T) {
	const cost = 2800 // 1 µs at model.ServerFreq
	t.Run("fifo-across-wrap", func(t *testing.T) {
		eng := sim.NewEngine(1)
		w := newWorker(eng, 0)
		var order []int
		next := 0
		submit := func(n int) {
			for ; n > 0; n-- {
				i := next
				next++
				w.Submit(Job{Cost: cost, Run: func() { order = append(order, i) }})
			}
		}
		submit(12) // 1 in service, 11 queued in the first 16-slot buffer
		eng.RunUntil(units.Time(9500 * units.Nanosecond))
		submit(8) // wraps past the end of the buffer
		if w.queue.head+w.queue.n <= len(w.queue.buf) {
			t.Fatalf("ring did not wrap: head %d, n %d, cap %d", w.queue.head, w.queue.n, len(w.queue.buf))
		}
		submit(20) // grows while wrapped
		eng.RunUntil(sim.Forever)
		if len(order) != next {
			t.Fatalf("served %d of %d jobs", len(order), next)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("order[%d] = %d, want FIFO order %v", i, got, order)
			}
		}
		if w.Busy() || w.QueueLen() != 0 {
			t.Fatalf("busy %v, queued %d after drain", w.Busy(), w.QueueLen())
		}
		if w.cur.Run != nil {
			t.Fatal("finished job still pinned in service slot")
		}
		for i, j := range w.queue.buf {
			if j.Run != nil {
				t.Fatalf("popped ring slot %d still pins its Run func", i)
			}
		}
	})
	t.Run("cap-rejects-after-wrap", func(t *testing.T) {
		eng := sim.NewEngine(1)
		w := newWorker(eng, 3)
		rejected, served := 0, 0
		for round := 0; round < 10; round++ {
			accepted := 0
			for i := 0; i < 6; i++ {
				if w.Submit(Job{Cost: cost, Run: func() { served++ }}) {
					accepted++
				} else {
					rejected++
				}
			}
			// An idle worker takes one into service and queues three.
			if accepted != 4 || w.QueueLen() != 3 {
				t.Fatalf("round %d: accepted %d, queued %d; want 4, 3", round, accepted, w.QueueLen())
			}
			eng.RunUntil(sim.Forever)
		}
		if rejected != 20 || served != 40 {
			t.Fatalf("rejected %d, served %d; want 20, 40", rejected, served)
		}
	})
	t.Run("unbounded-at-cap-0", func(t *testing.T) {
		eng := sim.NewEngine(1)
		w := newWorker(eng, 0)
		served := 0
		for i := 0; i < 1000; i++ {
			if !w.Submit(Job{Cost: cost, Run: func() { served++ }}) {
				t.Fatalf("job %d rejected with queueCap 0", i)
			}
		}
		if w.QueueLen() != 999 {
			t.Fatalf("queued %d, want 999", w.QueueLen())
		}
		eng.RunUntil(sim.Forever)
		if served != 1000 || eng.Now() != units.Time(1000*units.Microsecond) {
			t.Fatalf("served %d by %v, want 1000 by 1ms", served, eng.Now())
		}
	})
}

// TestPoolDispatchOrder pins least-loaded dispatch with round-robin tie
// breaks: each job's distinct cost identifies, in per-worker charges,
// which worker served it. The pool charges one ledger, so the test points
// each worker at a ledger of its own.
func TestPoolDispatchOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter()
	p := NewPool(eng, m, m.Ledger("dom0"), 3, 0)
	ledgers := []Ledger{m.Ledger("w0"), m.Ledger("w1"), m.Ledger("w2")}
	for i, w := range p.workers {
		w.ledger = ledgers[i]
	}
	us := func(n int64) units.Cycles { return units.Cycles(n * 2800) }
	// A(3µs)→w0, B(1µs)→w1, C(2µs)→w2: all idle, round robin.
	p.Submit(Job{Cost: us(3) + 1})
	p.Submit(Job{Cost: us(1) + 2})
	p.Submit(Job{Cost: us(2) + 4})
	eng.RunUntil(units.Time(1500 * units.Nanosecond)) // only w1 is idle

	p.Submit(Job{Cost: us(1) + 8})  // D: least loaded → w1
	p.Submit(Job{Cost: us(1) + 16}) // E: all tied at 1, scan starts at w2
	p.Submit(Job{Cost: us(1) + 32}) // F: w0 and w1 tied at 1, w0 first
	p.Submit(Job{Cost: us(1) + 64}) // G: w1 (1) beats w0, w2 (2)
	eng.RunUntil(sim.Forever)
	want := []units.Cycles{
		us(3) + 1 + us(1) + 32,
		us(1) + 2 + us(1) + 8 + us(1) + 64,
		us(2) + 4 + us(1) + 16,
	}
	for i, c := range want {
		if got := m.DomainCycles(ledgers[i]); got != c {
			t.Errorf("worker %d charged %d cycles, want %d", i, got, c)
		}
	}
}

// TestMeterBind pins ledger binding: a name binds to one ledger however
// often it is bound, so two domains sharing a name share their cycles;
// distinct names get distinct ledgers, and a ledger's charges are what the
// read side reports for it.
func TestMeterBind(t *testing.T) {
	m := NewMeter()
	a := m.Ledger("dom0")
	b := m.Ledger("guest-1")
	if a == b {
		t.Fatal("distinct domains share a ledger")
	}
	if again := m.Ledger("dom0"); again != a {
		t.Fatalf("rebinding gave ledger %d, want %d", again, a)
	}
	m.Charge(a, 10)
	m.Charge(m.Ledger("dom0"), 5)
	m.Charge(b, 3)
	if m.DomainCycles(a) != 15 || m.DomainCycles(b) != 3 {
		t.Fatalf("cycles = %d, %d; want 15, 3", m.DomainCycles(a), m.DomainCycles(b))
	}
	if m.DomainCycles(m.Ledger("unbound")) != 0 {
		t.Fatal("a fresh ledger reads nonzero")
	}
}

// TestMeterChargeAllocationFree pins the charge — the per-event accounting
// every modeled activity pays — at zero allocations.
func TestMeterChargeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	m := NewMeter()
	l := m.Ledger("guest-1")
	allocs := testing.AllocsPerRun(100, func() { m.Charge(l, 800) })
	if allocs != 0 {
		t.Fatalf("allocs per Charge = %.0f, want 0", allocs)
	}
	if got := m.DomainCycles(l); got != 101*800 {
		t.Fatalf("charged %d cycles, want %d", got, 101*800)
	}
}

// BenchmarkMeterCharge measures one charge to a domain's ledger.
func BenchmarkMeterCharge(b *testing.B) {
	m := NewMeter()
	for _, d := range []string{"dom0", "xen", "guest-1", "guest-2"} {
		m.Ledger(d)
	}
	l := m.Ledger("guest-1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Charge(l, 800)
	}
}
