package lib

import "testing"

func TestDeadCallers(t *testing.T) {
	Unused()
	T{}.Dead()
	U{}.Live()
	U{}.Run(1)
	New().Poke()
	var s Stats
	s.Record(false)
	if s.Misses != 1 {
		t.Fatal("miss not counted")
	}
}
