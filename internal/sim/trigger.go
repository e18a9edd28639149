package sim

// Trigger coalesces any number of Fire requests at the same instant into a
// single scheduled invocation of its callback. It is the building block for
// "recompute once, no matter how many things changed" patterns: bulk flow
// setup, link flaps, and mode transitions can all poke the trigger and the
// expensive recomputation runs exactly once at the current simulated time.
//
// A Trigger is single-goroutine, like the Engine it schedules on.
type Trigger struct {
	eng    *Engine
	name   string
	fn     func()
	handle Handle
	fire   func() // allocated once so repeated arms stay allocation-free
}

// NewTrigger builds a trigger that runs fn on the engine when fired.
func NewTrigger(eng *Engine, name string, fn func()) *Trigger {
	t := &Trigger{eng: eng, name: name, fn: fn}
	t.fire = func() { t.fn() }
	return t
}

// Fire arms the trigger at the engine's current time. If a firing is already
// pending the call is a no-op, so N same-instant Fires produce one callback.
// It reports whether a new firing was scheduled.
func (t *Trigger) Fire() bool {
	if t.handle.Pending() {
		return false
	}
	t.handle = t.eng.At(t.eng.Now(), t.name, t.fire)
	return true
}
