package lib

import "testing"

func TestDeadCallers(t *testing.T) {
	Unused()
	T{}.Dead()
	U{}.Live()
	U{}.Run(1)
	New().Poke()
}
