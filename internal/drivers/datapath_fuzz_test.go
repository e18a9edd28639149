package drivers

import (
	"slices"
	"testing"

	"repro/internal/guest"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Fuzz op encoding: four bytes per op.
//
//	byte 0: op (bits 0–1: add vif, inject, wire batch, advance time),
//	        frame (bit 2: 64 B or 1514 B), count low bits (bits 5–7)
//	byte 1: backend (pv, vmdq, vhost, ovs, swpass)
//	byte 2: destination MAC index (low nibble mod fuzzMACs), source (high nibble)
//	byte 3: count / 8, or the advance in units of 10 µs
const (
	fuzzAddVif = iota
	fuzzInject
	fuzzWire
	fuzzAdvance
)

// fuzzVifs is how many MACs AddVif draws from: more than
// model.VMDqGuestQueues, so VMDq vifs spill onto the fallback. Batches draw
// from fuzzMACs, whose last two no vif ever has.
const (
	fuzzVifs = 10
	fuzzMACs = 12
)

// fuzzOp encodes one op; count may be up to 2047.
func fuzzOp(op, backend, mac, count int, jumbo bool) []byte {
	b0 := byte(op) | byte(count%8)<<5
	if jumbo {
		b0 |= 1 << 2
	}
	return []byte{b0, byte(backend), byte(mac), byte(count / 8)}
}

func fuzzOps(ops ...[]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// FuzzDatapathConservation drives random sequences of AddVif (fresh and
// duplicate MACs), host-local and wire batches (to registered and unknown
// MACs, up to twice the ring caps) and time advances through every software
// backend at once. A duplicate AddVif must be refused and leave every
// ledger as it was; after a settle every ledger — the VMDq fallback's
// included — must balance, Received == Delivered + Dropped + InFlight, with
// nothing in flight.
func FuzzDatapathConservation(f *testing.F) {
	const pv, vmdq, vhost, ovs, swpass = 0, 1, 2, 3, 4
	add := func(backend, mac int) []byte { return fuzzOp(fuzzAddVif, backend, mac, 0, false) }
	inject := func(backend, mac, count int) []byte { return fuzzOp(fuzzInject, backend, mac, count, true) }
	wait := func(us10 int) []byte { return fuzzOp(fuzzAdvance, 0, 0, us10*8, false) }
	// TestVhostPollDeliversWithoutInterrupts: bursts of 30 every 100 µs.
	var vhostBursts [][]byte
	vhostBursts = append(vhostBursts, add(vhost, 0))
	for i := 0; i < 20; i++ {
		vhostBursts = append(vhostBursts, inject(vhost, 0, 30), wait(10))
	}
	f.Add(fuzzOps(vhostBursts...))
	// TestVhostRingOverflowDrops, TestVhostUnknownMACDrops.
	f.Add(fuzzOps(add(vhost, 0), fuzzOp(fuzzInject, vhost, 0, 2000, false), inject(vhost, 11, 10)))
	// TestOVSHitMissSplit, TestOVSUnknownMACDrops.
	f.Add(fuzzOps(add(ovs, 0), inject(ovs, 0, 10), wait(200), inject(ovs, 0, 10), inject(ovs, 11, 7)))
	// TestSwPassCoalescedInterrupt, then a ring overflow.
	f.Add(fuzzOps(add(swpass, 0), inject(swpass, 0, 10), wait(5), inject(swpass, 0, 10), wait(5),
		inject(swpass, 0, 10), fuzzOp(fuzzWire, swpass, 0, 2047, false)))
	// TestVMDqQueueAssignment: nine vifs, traffic to a queued guest and to
	// one on the fallback; then a duplicate.
	var vmdqSpill [][]byte
	for mac := 0; mac < 9; mac++ {
		vmdqSpill = append(vmdqSpill, add(vmdq, mac))
	}
	vmdqSpill = append(vmdqSpill, fuzzOp(fuzzWire, vmdq, 0, 10, true), wait(255),
		fuzzOp(fuzzWire, vmdq, 8, 10, true), add(vmdq, 8))
	f.Add(fuzzOps(vmdqSpill...))
	// Netback: wire and local batches, an unknown MAC, a duplicate vif.
	f.Add(fuzzOps(add(pv, 1), add(pv, 2), fuzzOp(fuzzWire, pv, 1, 640, true), inject(pv, 2, 4),
		fuzzOp(fuzzWire, pv, 9, 7, true), add(pv, 1), wait(30), inject(pv, 1, 1500)))

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		r := newRig(t, vmm.AllOptimizations)
		br := NewVMDqBridge(r.hv, 2)
		dps := []Datapath{NewNetback(r.hv, 2), br, NewVhost(r.hv), NewOVSSwitch(r.hv), NewSoftPassthrough(r.hv)}
		ledgers := append(append([]Datapath(nil), dps...), br.Fallback())
		snapshot := func() [][4]int64 {
			var out [][4]int64
			for _, dp := range ledgers {
				s := dp.Stats()
				out = append(out, [4]int64{s.Received, s.Delivered, s.Dropped, s.InFlight})
			}
			return out
		}
		var doms [fuzzVifs]*vmm.Domain
		var recvs [fuzzVifs]*guest.NetReceiver
		var added [5][fuzzVifs]bool
		for i := 0; i+3 < len(ops); i += 4 {
			be := int(ops[i+1]) % len(dps)
			dp := dps[be]
			mac := int(ops[i+2]&0xf) % fuzzMACs
			count := int(ops[i+3])*8 + int(ops[i]>>5)
			frame := units.Size(64)
			if ops[i]&(1<<2) != 0 {
				frame = 1514
			}
			b := nic.Batch{Src: nic.MAC(0xb0 + uint64(ops[i+2]>>4)), Dst: nic.MAC(0xa0 + uint64(mac)),
				Count: count, Bytes: units.Size(count) * frame}
			switch ops[i] % 4 {
			case fuzzAddVif:
				mac %= fuzzVifs
				if doms[mac] == nil {
					typ := vmm.PVM
					if mac%2 == 1 {
						typ = vmm.HVM
					}
					doms[mac], recvs[mac] = r.addGuest(t, names(mac), typ, vmm.Kernel2628)
				}
				before := snapshot()
				err := dp.AddVif(doms[mac], nic.MAC(0xa0+uint64(mac)), recvs[mac])
				if !added[be][mac] {
					if err != nil {
						t.Fatalf("op %d: %s AddVif(%d): %v", i/4, dp.Kind(), mac, err)
					}
					added[be][mac] = true
					continue
				}
				if err == nil {
					t.Fatalf("op %d: %s accepted a duplicate vif for MAC %d", i/4, dp.Kind(), mac)
				}
				if after := snapshot(); !slices.Equal(before, after) {
					t.Fatalf("op %d: refused %s AddVif moved the ledgers: %v → %v", i/4, dp.Kind(), before, after)
				}
			case fuzzInject:
				dp.Inject(b)
			case fuzzWire:
				if w, ok := dp.(interface{ FromNIC(nic.Batch) }); ok {
					w.FromNIC(b)
				} else {
					dp.Inject(b)
				}
			case fuzzAdvance:
				r.eng.RunUntil(r.eng.Now().Add(units.Duration(ops[i+3]) * 10 * units.Microsecond))
			}
		}
		// Settle: run until nothing is in flight, for at most 2 s.
		for deadline := r.eng.Now().Add(2 * units.Second); r.eng.Now() < deadline; {
			if s := snapshot(); !slices.ContainsFunc(s, func(l [4]int64) bool { return l[3] != 0 }) {
				break
			}
			r.eng.RunUntil(r.eng.Now().Add(10 * units.Millisecond))
		}
		for _, dp := range ledgers {
			checkConserved(t, dp)
		}
	})
}
