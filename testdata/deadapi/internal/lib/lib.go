// Package lib is a fixture for the dead-API gate: every exported
// identifier here is either referenced by cmd/tool or planted dead.
package lib

// T carries one live method, one dead one and an exempt String.
type T struct{}

// Used is called by cmd/tool.
func Used() int { return limit }

// Unused is referenced only by lib_test.go, which the gate ignores.
func Unused() {}

// Limit is referenced only inside its own package, which counts.
const Limit = 3

var limit = Limit

// Live is called by cmd/tool.
func (T) Live() {}

// Dead is called only by lib_test.go.
func (T) Dead() {}

// String is exempt: fmt calls it through fmt.Stringer.
func (T) String() string { return "T" }
