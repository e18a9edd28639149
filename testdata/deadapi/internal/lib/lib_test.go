package lib

import "testing"

func TestDeadCallers(t *testing.T) {
	Unused()
	T{}.Dead()
}
