package cluster

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// maxMinOracle is the allocator the fluid model ran before maxMin: the same
// progressive filling, written over fresh slices and whole-array scans. It
// stays here as the oracle maxMin must match bit for bit.
func maxMinOracle(demands []float64, paths [][]int, caps []float64) []float64 {
	n := len(demands)
	alloc := make([]float64, n)
	frozen := make([]bool, n)
	active := make([]int, len(caps))
	usedFrozen := make([]float64, len(caps))
	remaining := 0
	for i, d := range demands {
		if d <= 0 {
			frozen[i] = true
			continue
		}
		remaining++
		for _, l := range paths[i] {
			active[l]++
		}
	}
	level := 0.0
	for remaining > 0 {
		inc := math.Inf(1)
		for i := range demands {
			if !frozen[i] {
				if d := demands[i] - level; d < inc {
					inc = d
				}
			}
		}
		for l := range caps {
			if active[l] > 0 {
				if r := (caps[l]-usedFrozen[l])/float64(active[l]) - level; r < inc {
					inc = r
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		freezeAt := func(i int, a float64) {
			frozen[i] = true
			alloc[i] = a
			remaining--
			for _, l := range paths[i] {
				active[l]--
				usedFrozen[l] += a
			}
		}
		froze := false
		for i := range demands {
			if !frozen[i] && demands[i]-level <= inc {
				freezeAt(i, demands[i])
				froze = true
			}
		}
		for l := range caps {
			if active[l] == 0 {
				continue
			}
			if (caps[l]-usedFrozen[l])/float64(active[l])-level <= inc {
				for i := range demands {
					if frozen[i] {
						continue
					}
					for _, pl := range paths[i] {
						if pl == l {
							freezeAt(i, level+inc)
							froze = true
							break
						}
					}
				}
			}
		}
		level += inc
		if !froze {
			for i := range demands {
				if !frozen[i] {
					freezeAt(i, level)
				}
			}
		}
	}
	return alloc
}

// maxMinInput is one allocation problem in FuzzMaxMinAllocate's byte form:
// a link count, a rate divisor, the link capacities, then flows of a demand
// and up to four hops. Rates are uint16 Mbps over the divisor, so equal
// encodings give tied demands and tied link shares, and a zero gives a zero
// demand or capacity.
type maxMinInput struct {
	div     byte
	caps    []uint16
	demands []uint16
	paths   [][]byte
}

const maxMinFuzzFlows = 64

func (in maxMinInput) encode() []byte {
	b := []byte{byte(len(in.caps) - 1), in.div}
	for _, c := range in.caps {
		b = binary.LittleEndian.AppendUint16(b, c)
	}
	for i, d := range in.demands {
		b = binary.LittleEndian.AppendUint16(b, d)
		b = append(b, byte(len(in.paths[i])))
		b = append(b, in.paths[i]...)
	}
	return b
}

func decodeMaxMin(b []byte) (demands []float64, paths [][]int, caps []float64) {
	if len(b) < 2 {
		return nil, nil, []float64{1e9}
	}
	nLinks := 1 + int(b[0]%8)
	unit := 1e6 / float64(1+b[1]%7)
	b = b[2:]
	caps = make([]float64, nLinks)
	for l := range caps {
		if len(b) >= 2 {
			caps[l] = float64(binary.LittleEndian.Uint16(b)) * unit
			b = b[2:]
		}
	}
	for len(b) >= 3 && len(demands) < maxMinFuzzFlows {
		demands = append(demands, float64(binary.LittleEndian.Uint16(b))*unit)
		hops := int(b[2] % 5)
		b = b[3:]
		path := []int{}
		for ; hops > 0 && len(b) > 0; hops-- {
			path = append(path, int(b[0])%nLinks)
			b = b[1:]
		}
		paths = append(paths, path)
	}
	return demands, paths, caps
}

// maxMinShapes rebuilds the shapes of the TestMaxMin* property tests (their
// seeded random flow sets, integer Mbps) as fuzz seeds.
func maxMinShapes(seed int64, trials, maxLinks, maxFlows int, minHops int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	for trial := 0; trial < trials; trial++ {
		in := maxMinInput{div: 0, caps: make([]uint16, 1+rng.Intn(maxLinks))}
		for l := range in.caps {
			in.caps[l] = uint16(100 + rng.Intn(900))
		}
		for i := 1 + rng.Intn(maxFlows); i > 0; i-- {
			in.demands = append(in.demands, uint16(1+rng.Intn(1000)))
			perm := rng.Perm(len(in.caps))
			hops := min(minHops+rng.Intn(4-minHops), len(in.caps))
			var p []byte
			for _, l := range perm[:hops] {
				p = append(p, byte(l))
			}
			in.paths = append(in.paths, p)
		}
		out = append(out, in.encode())
	}
	return out
}

// FuzzMaxMinAllocate checks maxMin against maxMinOracle bit for bit. One
// solver is reused across problems of growing and shrinking size (the input,
// its first half of flows, the input without its last link, the input
// again), so a stale buffer would show.
func FuzzMaxMinAllocate(f *testing.F) {
	// TestSnapToDemandExactness: unconstrained links, demands snap exactly.
	f.Add(maxMinInput{div: 0, caps: []uint16{65535, 65535}, demands: []uint16{957, 333, 123},
		paths: [][]byte{{0}, {0}, {1}}}.encode())
	// TestFluidAllocationSharesBottleneck: two 1 Gbps flows share a 500 Mbps trunk.
	f.Add(maxMinInput{div: 0, caps: []uint16{1000, 500, 1000}, demands: []uint16{1000, 1000},
		paths: [][]byte{{0, 1, 2}, {0, 1, 2}}}.encode())
	// Zero demands, empty paths, tied demands, tied link shares, thirds.
	f.Add(maxMinInput{div: 2, caps: []uint16{1000, 1000, 0}, demands: []uint16{0, 500, 500, 0, 700, 300},
		paths: [][]byte{{}, {0, 1}, {1, 0}, {0}, {}, {2}}}.encode())
	for _, b := range maxMinShapes(12345, 4, 6, 10, 0) { // TestMaxMinMatchesWaterFillingReference
		f.Add(b)
	}
	for _, b := range maxMinShapes(999, 4, 5, 12, 1) { // TestMaxMinProperties
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		demands, paths, caps := decodeMaxMin(data)
		var mm maxMin
		check := func(what string, demands []float64, paths [][]int, caps []float64) {
			t.Helper()
			want := maxMinOracle(demands, paths, caps)
			got := mm.solve(demands, paths, caps)
			if len(got) != len(want) {
				t.Fatalf("%s: %d allocations, oracle %d", what, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: flow %d: solver %v, oracle %v\ndemands=%v\npaths=%v\ncaps=%v",
						what, i, got[i], want[i], demands, paths, caps)
				}
			}
		}
		check("input", demands, paths, caps)
		half := len(demands) / 2
		check("first half", demands[:half], paths[:half], caps)
		if last := len(caps) - 1; last > 0 {
			cut := make([][]int, len(paths))
			for i, p := range paths {
				for _, l := range p {
					if l != last {
						cut[i] = append(cut[i], l)
					}
				}
			}
			check("last link cut", demands, cut, caps[:last])
		}
		check("input again", demands, paths, caps)
	})
}
