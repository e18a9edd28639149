package cpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

var testSys = System{Threads: 16, Freq: 2800 * units.MHz}

func TestMeterUtilization(t *testing.T) {
	m := NewMeter(testSys)
	m.ResetWindow(0)
	// Charge half a thread-second of cycles over one second.
	m.Charge(m.Bind(Account{"dom0", "devicemodel"}), testSys.Freq.CyclesIn(500*units.Millisecond))
	now := units.Time(units.Second)
	if got := m.Utilization("dom0", now); got < 49.9 || got > 50.1 {
		t.Fatalf("utilization = %v, want 50", got)
	}
	if got := m.TotalUtilization(now); got < 49.9 || got > 50.1 {
		t.Fatalf("total = %v", got)
	}
	if got := m.Utilization("guest-0", now); got != 0 {
		t.Fatalf("unknown domain = %v, want 0", got)
	}
}

func TestMeterBreakdownByDomain(t *testing.T) {
	m := NewMeter(testSys)
	m.ResetWindow(0)
	m.Charge(m.Bind(Account{"dom0", "a"}), 100)
	m.Charge(m.Bind(Account{"dom0", "b"}), 200)
	m.Charge(m.Bind(Account{"xen", "c"}), 50)
	if m.DomainCycles("dom0") != 300 {
		t.Fatalf("dom0 cycles = %d", m.DomainCycles("dom0"))
	}
	if m.TotalCycles() != 350 {
		t.Fatalf("total = %d", m.TotalCycles())
	}
	d := m.Domains()
	if len(d) != 2 || d[0] != "dom0" || d[1] != "xen" {
		t.Fatalf("domains = %v", d)
	}
	for _, c := range []struct {
		a    Account
		want units.Cycles
	}{{Account{"dom0", "a"}, 100}, {Account{"dom0", "b"}, 200}, {Account{"xen", "c"}, 50}, {Account{"xen", "a"}, 0}} {
		if got := m.Cycles(c.a); got != c.want {
			t.Fatalf("cycles(%v) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestMeterResetWindow(t *testing.T) {
	m := NewMeter(testSys)
	s := m.Bind(Account{"dom0", "a"})
	m.Charge(s, 100)
	m.ResetWindow(units.Time(units.Second))
	if m.TotalCycles() != 0 || m.Cycles(Account{"dom0", "a"}) != 0 {
		t.Fatal("reset should clear cycles")
	}
	// The slot stays bound across the reset and charges the new window.
	m.Charge(s, 7)
	if m.Cycles(Account{"dom0", "a"}) != 7 || m.DomainCycles("dom0") != 7 {
		t.Fatalf("post-reset cycles = %d, want 7", m.Cycles(Account{"dom0", "a"}))
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
	m := NewMeter(testSys)
	defer func() {
		if recover() == nil {
			t.Error("negative charge should panic")
		}
	}()
	m.Charge(m.Bind(Account{"x", "y"}), -1)
}

func TestWorkerServesFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(testSys)
	w := NewWorker(eng, m, Account{"dom0", "netback"}, 0)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		w.Submit(Job{Cost: 2800, Run: func() { order = append(order, i) }}) // 1 µs each
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	// 3 jobs × 1 µs serial.
	if eng.Now() != units.Time(3*units.Microsecond) {
		t.Fatalf("finished at %v, want 3µs", eng.Now())
	}
	if m.Cycles(Account{"dom0", "netback"}) != 3*2800 {
		t.Fatal("cycles not charged")
	}
	if w.Served != 3 {
		t.Fatalf("served = %d", w.Served)
	}
}

func TestWorkerQueueCap(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(testSys)
	w := NewWorker(eng, m, Account{"dom0", "netback"}, 2)
	ok := 0
	for i := 0; i < 5; i++ {
		if w.Submit(Job{Cost: 2800}) {
			ok++
		}
	}
	// First starts service immediately, two queue, rest rejected.
	if ok != 3 {
		t.Fatalf("accepted = %d, want 3", ok)
	}
	if w.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", w.Rejected)
	}
	eng.Run()
	if w.Served != 3 {
		t.Fatalf("served = %d, want 3", w.Served)
	}
}

func TestWorkerSaturation(t *testing.T) {
	// A worker offered more than 1 thread of work stays ~100% utilized.
	eng := sim.NewEngine(1)
	m := NewMeter(testSys)
	m.ResetWindow(0)
	w := NewWorker(eng, m, Account{"dom0", "copy"}, 0)
	// Submit 2 thread-seconds of work.
	perJob := testSys.Freq.CyclesIn(units.Millisecond)
	for i := 0; i < 2000; i++ {
		w.Submit(Job{Cost: perJob})
	}
	end := eng.RunUntil(units.Time(units.Second))
	util := m.Utilization("dom0", end)
	if util < 99 || util > 101 {
		t.Fatalf("saturated worker utilization = %v, want ~100", util)
	}
}

func TestPoolSpreadsLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(testSys)
	m.ResetWindow(0)
	p := NewPool(eng, m, Account{"dom0", "netback"}, 4, 0)
	perJob := testSys.Freq.CyclesIn(units.Millisecond)
	// 3 thread-seconds of work across 4 workers in 1 second: ~75% each.
	for i := 0; i < 3000; i++ {
		p.Submit(Job{Cost: perJob})
	}
	end := eng.RunUntil(units.Time(units.Second))
	util := m.Utilization("dom0", end)
	if util < 295 || util > 305 {
		t.Fatalf("pool utilization = %v, want ~300", util)
	}
	if p.Served() != 3000 {
		t.Fatalf("served = %d", p.Served())
	}
	if p.Rejected() != 0 {
		t.Fatalf("rejected = %d", p.Rejected())
	}
}

func TestPoolBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size pool should panic")
		}
	}()
	NewPool(sim.NewEngine(1), NewMeter(testSys), Account{"a", "b"}, 0, 0)
}

func TestUtilizationAdditiveProperty(t *testing.T) {
	// Utilization of the total equals the sum of per-domain utilizations.
	prop := func(raw []uint16) bool {
		m := NewMeter(testSys)
		m.ResetWindow(0)
		domains := []string{"dom0", "xen", "guest-1", "guest-2"}
		for i, r := range raw {
			m.Charge(m.Bind(Account{domains[i%len(domains)], "w"}), units.Cycles(r)*1000)
		}
		now := units.Time(units.Second)
		var sum float64
		for _, d := range m.Domains() {
			sum += m.Utilization(d, now)
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

func TestCategoryUtilizationAndBreakdown(t *testing.T) {
	m := NewMeter(testSys)
	m.ResetWindow(0)
	a := Account{"dom0", "netback"}
	m.Charge(m.Bind(a), testSys.Freq.CyclesIn(250*units.Millisecond))
	now := units.Time(units.Second)
	if got := m.utilization(m.Cycles(a), now); got < 24.9 || got > 25.1 {
		t.Fatalf("category utilization = %v", got)
	}
	if a.String() != "dom0/netback" {
		t.Fatalf("account string = %q", a.String())
	}
}

func TestPoolQueuedJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(testSys)
	p := NewPool(eng, m, Account{"dom0", "w"}, 2, 0)
	if p.QueuedJobs() != 0 {
		t.Fatal("fresh pool should be empty")
	}
	for i := 0; i < 5; i++ {
		p.Submit(Job{Cost: testSys.Freq.CyclesIn(units.Millisecond)})
	}
	if got := p.QueuedJobs(); got != 5 {
		t.Fatalf("queued = %d, want 5 (2 busy + 3 waiting)", got)
	}
	eng.Run()
	if p.QueuedJobs() != 0 {
		t.Fatal("pool should drain")
	}
}

// TestWorkerRing drives a worker's job ring through wrap-around, growth
// while wrapped, the queueCap rejection rule and unbounded growth, and
// checks that served and popped jobs release their Run funcs.
func TestWorkerRing(t *testing.T) {
	const cost = 2800 // 1 µs at testSys
	t.Run("fifo-across-wrap", func(t *testing.T) {
		eng := sim.NewEngine(1)
		w := NewWorker(eng, NewMeter(testSys), Account{"dom0", "w"}, 0)
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
		eng.Run()
		if len(order) != next {
			t.Fatalf("served %d of %d jobs", len(order), next)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("order[%d] = %d, want FIFO order %v", i, got, order)
			}
		}
		if w.Served != int64(next) || w.Busy() || w.QueueLen() != 0 {
			t.Fatalf("served %d, busy %v, queued %d after drain", w.Served, w.Busy(), w.QueueLen())
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
		w := NewWorker(eng, NewMeter(testSys), Account{"dom0", "w"}, 3)
		for round := 0; round < 10; round++ {
			accepted := 0
			for i := 0; i < 6; i++ {
				if w.Submit(Job{Cost: cost}) {
					accepted++
				}
			}
			// An idle worker takes one into service and queues three.
			if accepted != 4 || w.QueueLen() != 3 {
				t.Fatalf("round %d: accepted %d, queued %d; want 4, 3", round, accepted, w.QueueLen())
			}
			eng.Run()
		}
		if w.Rejected != 20 || w.Served != 40 {
			t.Fatalf("rejected %d, served %d; want 20, 40", w.Rejected, w.Served)
		}
	})
	t.Run("unbounded-at-cap-0", func(t *testing.T) {
		eng := sim.NewEngine(1)
		w := NewWorker(eng, NewMeter(testSys), Account{"dom0", "w"}, 0)
		for i := 0; i < 1000; i++ {
			if !w.Submit(Job{Cost: cost}) {
				t.Fatalf("job %d rejected with queueCap 0", i)
			}
		}
		if w.QueueLen() != 999 || w.Rejected != 0 {
			t.Fatalf("queued %d, rejected %d; want 999, 0", w.QueueLen(), w.Rejected)
		}
		eng.Run()
		if w.Served != 1000 {
			t.Fatalf("served %d, want 1000", w.Served)
		}
	})
}

// TestPoolDispatchOrder pins least-loaded dispatch with round-robin tie
// breaks: each job's distinct cost identifies, in the per-worker charges,
// which worker served it.
func TestPoolDispatchOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(testSys)
	p := NewPool(eng, m, Account{"dom0", "w"}, 3, 0)
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
	eng.Run()
	want := []units.Cycles{
		us(3) + 1 + us(1) + 32,
		us(1) + 2 + us(1) + 8 + us(1) + 64,
		us(2) + 4 + us(1) + 16,
	}
	for i, c := range want {
		if got := m.Cycles(Account{"dom0", fmt.Sprintf("w.%d", i)}); got != c {
			t.Errorf("worker %d charged %d cycles, want %d", i, got, c)
		}
	}
}

// TestMeterBind pins slot binding: an account binds to one slot however
// often it is bound, distinct accounts get distinct slots, and a slot's
// charges are what the read side reports for its account.
func TestMeterBind(t *testing.T) {
	m := NewMeter(testSys)
	a := m.Bind(Account{"dom0", "a"})
	b := m.Bind(Account{"guest-1", "a"})
	if a == b {
		t.Fatal("distinct accounts share a slot")
	}
	if again := m.Bind(Account{"dom0", "a"}); again != a {
		t.Fatalf("rebinding gave slot %d, want %d", again, a)
	}
	m.Charge(a, 10)
	m.Charge(m.Bind(Account{"dom0", "a"}), 5)
	m.Charge(b, 3)
	if m.Cycles(Account{"dom0", "a"}) != 15 || m.Cycles(Account{"guest-1", "a"}) != 3 {
		t.Fatalf("cycles = %d, %d; want 15, 3", m.Cycles(Account{"dom0", "a"}), m.Cycles(Account{"guest-1", "a"}))
	}
	if m.Cycles(Account{"dom0", "unbound"}) != 0 {
		t.Fatal("an unbound account reads nonzero")
	}
}

// TestMeterChargeAllocationFree pins the bound charge — the per-event
// accounting every modeled activity pays — at zero allocations.
func TestMeterChargeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	m := NewMeter(testSys)
	s := m.Bind(Account{"guest-1", "isr"})
	allocs := testing.AllocsPerRun(100, func() { m.Charge(s, 800) })
	if allocs != 0 {
		t.Fatalf("allocs per Charge = %.0f, want 0", allocs)
	}
	if got := m.Cycles(Account{"guest-1", "isr"}); got != 101*800 {
		t.Fatalf("charged %d cycles, want %d", got, 101*800)
	}
}

// BenchmarkMeterCharge measures one charge to a bound account.
func BenchmarkMeterCharge(b *testing.B) {
	m := NewMeter(testSys)
	for _, d := range []string{"dom0", "xen", "guest-1", "guest-2"} {
		m.Bind(Account{d, "isr"})
	}
	s := m.Bind(Account{"guest-1", "stack"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Charge(s, 800)
	}
}
