// Package lib is a fixture for the dead-API gate: every exported
// identifier and every struct field here is either used by cmd/tool or
// planted dead.
package lib

// T carries live methods (a direct call, an interface call, an exempt
// String) and one dead one.
type T struct{}

// U is planted dead twice over: its methods share their names with live
// methods of T, which only a gate that matches by name would count.
type U struct{}

// Runner is the interface cmd/tool calls Run through.
type Runner interface{ Run() }

// hidden is unexported, but New hands one out, so its exported methods are
// API all the same.
type hidden struct{}

// Box is generic: cmd/tool calls Get on an instantiation.
type Box[V any] struct{ v V }

// Stats plants the field rule: Hits is only written, Misses only a test
// reads, cmd/tool reads Total, and encoding/json would read the tagged
// Label.
type Stats struct {
	Hits   int
	Misses int
	Total  int
	Label  string `json:"label"`
}

// Pair is only ever built positionally: its V is set but never read.
type Pair struct{ V int }

// Key is a map key, so hashing reads its ID although no file names it.
type Key struct{ ID int }

var index = map[Key]int{}

// Used is called by cmd/tool.
func Used() int { return limit + index[Key{limit}] }

// Record counts one lookup.
func (s *Stats) Record(hit bool) {
	s.Total++
	if hit {
		s.Hits++
	} else {
		s.Misses += 1
	}
}

// NewPair is called by cmd/tool.
func NewPair() Pair { return Pair{7} }

// New is called by cmd/tool.
func New() hidden { return hidden{} }

// Unused is referenced only by lib_test.go, which the gate ignores.
func Unused() {}

// Limit is referenced only inside its own package, which counts.
const Limit = 3

var limit = Limit

// Live is called by cmd/tool.
func (T) Live() {}

// Dead is called only by lib_test.go.
func (T) Dead() {}

// Run is live: cmd/tool calls it through Runner.
func (T) Run() {}

// String is exempt: fmt calls it through fmt.Stringer.
func (T) String() string { return "T" }

// Live is dead: cmd/tool's t.Live() resolves to T.Live.
func (U) Live() {}

// Run is dead: its signature does not implement Runner.
func (U) Run(int) {}

// Get is live through Box[int].
func (b Box[V]) Get() V { return b.v }

// Peek is live: cmd/tool calls it on New's result.
func (hidden) Peek() int { return 1 }

// Poke is dead: only lib_test.go calls it.
func (hidden) Poke() {}
