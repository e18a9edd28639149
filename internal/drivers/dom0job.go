package drivers

import (
	"repro/internal/cpu"
	"repro/internal/nic"
	"repro/internal/units"
)

// dom0Job is the pooled payload of one batch a dom0 thread serves: the
// destination vif and the batch. Its run func is bound once, when the
// record is first made, so submitting a batch to a cpu.Pool builds no
// closure.
type dom0Job[V any] struct {
	v   V
	b   nic.Batch
	run func()
}

// dom0Jobs is one backend's dom0 thread pool and its free list of dom0Job
// records. A batch it serves is in flight in books; when it lands it
// counts as delivered, and land, the backend's completion body, runs.
// Ownership rule: run returns the record to the free list before calling
// land (it copies the fields to locals first), so a record is never live
// across a callback.
type dom0Jobs[V any] struct {
	pool  *cpu.Pool
	books *Ledger
	free  []*dom0Job[V]
	land  func(v V, b nic.Batch)
}

// submit hands in-flight batch b for vif v to a thread of the pool at the
// given cost, dropping it if the chosen thread's queue is full.
func (p *dom0Jobs[V]) submit(cost units.Cycles, v V, b nic.Batch) {
	j := p.get()
	j.v, j.b = v, b
	if !p.pool.Submit(cpu.Job{Cost: cost, Run: j.run}) {
		p.put(j)
		p.books.lost(b.Count)
	}
}

func (p *dom0Jobs[V]) get() *dom0Job[V] {
	if n := len(p.free); n > 0 {
		j := p.free[n-1]
		p.free = p.free[:n-1]
		return j
	}
	j := &dom0Job[V]{}
	j.run = func() {
		v, b := j.v, j.b
		p.put(j)
		p.books.delivered(b.Count)
		p.land(v, b)
	}
	return j
}

// put recycles j, dropping its vif so a free record pins nothing.
func (p *dom0Jobs[V]) put(j *dom0Job[V]) {
	var zero V
	j.v = zero
	p.free = append(p.free, j)
}
