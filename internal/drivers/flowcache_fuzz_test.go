package drivers

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/units"
)

// shadowCache is a deliberately naive reimplementation of the FlowCache
// semantics — ordered slice for recency, map for idle times — used as the
// differential oracle for the fuzzer. Front of keys = most recently used.
type shadowCache struct {
	cap  int
	idle units.Duration
	keys []FlowKey
	last map[FlowKey]units.Time
}

func (s *shadowCache) find(k FlowKey) int {
	for i, key := range s.keys {
		if key == k {
			return i
		}
	}
	return -1
}

func (s *shadowCache) moveFront(i int) {
	k := s.keys[i]
	copy(s.keys[1:i+1], s.keys[:i])
	s.keys[0] = k
}

func (s *shadowCache) lookup(k FlowKey, now units.Time) bool {
	i := s.find(k)
	if i < 0 {
		return false
	}
	if s.idle > 0 && now-s.last[k] > units.Time(s.idle) {
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
		delete(s.last, k)
		return false
	}
	s.last[k] = now
	s.moveFront(i)
	return true
}

func (s *shadowCache) insert(k FlowKey, now units.Time) {
	if i := s.find(k); i >= 0 {
		s.last[k] = now
		s.moveFront(i)
		return
	}
	for len(s.keys) >= s.cap {
		victim := s.keys[len(s.keys)-1]
		s.keys = s.keys[:len(s.keys)-1]
		delete(s.last, victim)
	}
	s.keys = append([]FlowKey{k}, s.keys...)
	s.last[k] = now
}

// FuzzFlowCacheLookup drives random insert/lookup/time-advance sequences
// through the FlowCache and the shadow oracle in lockstep: every lookup must
// agree, Len must track the oracle, and the capacity bound must never be
// exceeded. The key space is kept tiny (8 MACs × 2 VLANs) so sequences
// collide constantly — the interesting interleavings are
// refresh-then-evict and expire-under-LRU, not key diversity.
func FuzzFlowCacheLookup(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 1, 2, 0, 2, 200, 0, 0, 1, 1, 2, 0}, uint8(4), uint16(100))
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 1, 3, 0, 0}, uint8(1), uint16(0))
	f.Add([]byte{0, 5, 5, 1, 2, 255, 0, 0, 1, 5, 5, 1}, uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, ops []byte, capSeed uint8, idleUS uint16) {
		capacity := int(capSeed%8) + 1
		idle := units.Duration(idleUS) * units.Microsecond
		fc := NewFlowCache(capacity, idle)
		oracle := &shadowCache{cap: capacity, idle: idle, last: make(map[FlowKey]units.Time)}
		var now units.Time
		for i := 0; i+3 < len(ops); i += 4 {
			k := FlowKey{
				Src:  nic.MAC(ops[i+1] % 8),
				Dst:  nic.MAC(ops[i+2] % 8),
				VLAN: uint16(ops[i+3] % 2),
			}
			switch ops[i] % 3 {
			case 0:
				fc.Insert(k, now)
				oracle.insert(k, now)
			case 1:
				got, want := fc.Lookup(k, now), oracle.lookup(k, now)
				if got != want {
					t.Fatalf("op %d: Lookup(%v, %v) = %v, oracle says %v", i, k, now, got, want)
				}
			case 2:
				now += units.Time(units.Duration(ops[i+1]) * units.Microsecond)
			}
			if fc.lru.Len() > capacity {
				t.Fatalf("op %d: Len %d exceeds capacity %d", i, fc.lru.Len(), capacity)
			}
			if fc.lru.Len() != len(oracle.keys) {
				t.Fatalf("op %d: Len %d, oracle holds %d", i, fc.lru.Len(), len(oracle.keys))
			}
		}
		// Closing property: an insert is immediately visible.
		probe := FlowKey{Src: 1, Dst: 2, VLAN: 1}
		fc.Insert(probe, now)
		if !fc.Lookup(probe, now) {
			t.Fatal("lookup immediately after insert must hit")
		}
	})
}
