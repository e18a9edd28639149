package sim

import "testing"

func drawN(r *RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Deriving a named stream must not depend on the parent's stream position:
// drawing from the parent first, or deriving other streams first, must not
// change what the named stream yields.
func TestStreamIndependentOfDrawOrder(t *testing.T) {
	a := NewRNG(7)
	want := drawN(a.Stream("x"), 8)

	b := NewRNG(7)
	drawN(b, 100)          // perturb the parent stream
	_ = b.Stream("other")  // derive an unrelated stream
	_ = b.Stream("other2") // and another
	if got := drawN(b.Stream("x"), 8); !equalU64(got, want) {
		t.Fatal("named stream depends on parent draw order")
	}
}

// Different names must give different sequences; the same name the same.
func TestStreamNaming(t *testing.T) {
	r := NewRNG(42)
	x := drawN(r.Stream("x"), 4)
	y := drawN(r.Stream("y"), 4)
	if equalU64(x, y) {
		t.Fatal("streams x and y coincide")
	}
	if got := drawN(NewRNG(42).Stream("x"), 4); !equalU64(got, x) {
		t.Fatal("stream x not reproducible from the same seed")
	}
}

// Engine.Stream memoizes: two claims of one name share the stateful stream.
func TestEngineStreamMemoized(t *testing.T) {
	e := NewEngine(1)
	s1 := e.Stream("a")
	v := s1.Uint64()
	s2 := e.Stream("a")
	if s1 != s2 {
		t.Fatal("Engine.Stream returned distinct generators for one name")
	}
	if s2.Uint64() == v {
		t.Fatal("memoized stream restarted instead of continuing")
	}
}

func TestStableSeedSeparator(t *testing.T) {
	if StableSeed("ab", "c") == StableSeed("a", "bc") {
		t.Fatal("StableSeed concatenates parts without separation")
	}
	if StableSeed("x") != StableSeed("x") {
		t.Fatal("StableSeed not deterministic")
	}
}

func TestTotalProcessedAccumulates(t *testing.T) {
	before := TotalProcessed()
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.After(Duration(i), "tick", func() {})
	}
	e.Run()
	if got := TotalProcessed() - before; got < 10 {
		t.Fatalf("global event counter advanced by %d, want >= 10", got)
	}
}
