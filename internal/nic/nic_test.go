package nic

import (
	"testing"
	"testing/quick"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

func newTestPort(eng *sim.Engine) *Port {
	return New(eng, Config{Name: "eth0", NumVFs: 7})
}

func TestPortConstruction(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	if p.NumVFs() != 7 {
		t.Fatalf("VFs = %d", p.NumVFs())
	}
	if p.Rate() != units.Gbps {
		t.Fatalf("rate = %v", p.Rate())
	}
	cap, ok := pcie.SRIOVCapAt(p.PF().Config())
	if !ok {
		t.Fatal("PF missing SR-IOV capability")
	}
	if cap.TotalVFs() != 7 {
		t.Fatalf("TotalVFs = %d", cap.TotalVFs())
	}
	// VFs have MSI with per-vector masking (the §5.1 register) — visible
	// once the VF responds on the bus.
	vf0 := p.VFQueue(0).Function()
	if _, ok := pcie.MSICapAt(vf0.Config()); ok {
		t.Fatal("disabled VF should not expose capabilities")
	}
	cap.SetNumVFs(7)
	p.PF().ConfigWrite16(cap.Offset()+0x08, pcie.SRIOVCtlVFEnable|pcie.SRIOVCtlVFMSE)
	if _, ok := pcie.MSICapAt(vf0.Config()); !ok {
		t.Fatal("VF missing MSI capability")
	}
}

func TestVFEnableViaConfigWrite(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	vf := p.VFQueue(0).Function()
	if vf.Config().Present() {
		t.Fatal("VF present before enable")
	}
	cap, _ := pcie.SRIOVCapAt(p.PF().Config())
	cap.SetNumVFs(3)
	// Real drivers write the control register through the function so the
	// hardware reacts.
	p.PF().ConfigWrite16(cap.Offset()+0x08, pcie.SRIOVCtlVFEnable|pcie.SRIOVCtlVFMSE)
	if !p.VFQueue(0).Function().Config().Present() {
		t.Fatal("VF0 should respond after enable")
	}
	if !p.VFQueue(2).Function().Config().Present() {
		t.Fatal("VF2 should respond after enable")
	}
	if p.VFQueue(3).Function().Config().Present() {
		t.Fatal("VF3 beyond NumVFs should stay hidden")
	}
}

func TestClassification(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q0 := p.VFQueue(0)
	p.SetMAC(MAC(0xaa), q0)
	got, ok := p.ClassifyVLAN(MAC(0xaa), 0)
	if !ok || got != q0 {
		t.Fatal("classify failed")
	}
	if _, ok := p.ClassifyVLAN(MAC(0xbb), 0); ok {
		t.Fatal("unknown MAC should not classify")
	}
	p.ClearMAC(MAC(0xaa))
	if _, ok := p.ClassifyVLAN(MAC(0xaa), 0); ok {
		t.Fatal("cleared MAC should not classify")
	}
}

func TestWireDeliveryAndInterrupt(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	p.SetMAC(MAC(1), q)
	fired := 0
	q.Sink = func(*Queue) { fired++ }
	q.SetIntrEnabled(true)
	p.ReceiveFromWire(Batch{Dst: MAC(1), Count: 10, Bytes: 15140})
	eng.Run()
	if q.Stats.RxPackets != 10 {
		t.Fatalf("rx packets = %d", q.Stats.RxPackets)
	}
	if q.Occupied() != 10 {
		t.Fatalf("ring occupancy = %d", q.Occupied())
	}
	if fired != 1 {
		t.Fatalf("interrupts = %d", fired)
	}
	// Wire serialization: 15140 bytes at 1 Gbps ≈ 121 µs.
	if eng.Now() < units.Time(121*units.Microsecond) || eng.Now() > units.Time(122*units.Microsecond) {
		t.Fatalf("delivery time = %v", eng.Now())
	}
	n, bytes := q.Drain(-1)
	if n != 10 || bytes != 15140 {
		t.Fatalf("drain = %d pkts %d bytes", n, bytes)
	}
	if q.Occupied() != 0 {
		t.Fatal("ring should be empty after drain")
	}
}

func TestUnknownMACDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	p.ReceiveFromWire(Batch{Dst: MAC(99), Count: 5, Bytes: 7570})
	eng.Run()
	if p.WireRxPackets != 5 {
		t.Fatal("wire counter should still count")
	}
	for i := 0; i < p.NumVFs(); i++ {
		if p.VFQueue(i).Stats.RxPackets != 0 {
			t.Fatal("no queue should receive")
		}
	}
}

func TestRingOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	p := New(eng, Config{Name: "eth0", NumVFs: 1, RingCap: 8})
	q := p.VFQueue(0)
	p.SetMAC(MAC(1), q)
	p.ReceiveFromWire(Batch{Dst: MAC(1), Count: 20, Bytes: 20 * 1514})
	eng.Run()
	if q.Stats.RxPackets != 8 {
		t.Fatalf("accepted = %d, want 8", q.Stats.RxPackets)
	}
	if q.Stats.RxDropped != 12 {
		t.Fatalf("dropped = %d, want 12", q.Stats.RxDropped)
	}
}

func TestITRThrottling(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	p.SetMAC(MAC(1), q)
	fired := 0
	q.Sink = func(qq *Queue) {
		fired++
		qq.Drain(-1)
	}
	q.SetITR(units.Duration(500 * units.Microsecond)) // 2 kHz
	q.SetIntrEnabled(true)
	// Deliver 10 batches 100 µs apart: first fires immediately, the rest
	// coalesce at 500 µs boundaries.
	for i := 0; i < 10; i++ {
		d := units.Duration(i) * 100 * units.Microsecond
		eng.After(d, "gen", func() {
			q.deliver(Batch{Dst: MAC(1), Count: 1, Bytes: 1514})
		})
	}
	eng.Run()
	// Events at 0..900 µs. Fires at 0, 500, 1000 → 3 interrupts.
	if fired != 3 {
		t.Fatalf("interrupts = %d, want 3", fired)
	}
	if q.Stats.Interrupts != 3 {
		t.Fatalf("stat interrupts = %d", q.Stats.Interrupts)
	}
}

func TestMaskDefersInterrupt(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	fired := 0
	q.Sink = func(*Queue) { fired++ }
	q.SetIntrEnabled(true)
	q.SetMasked(true)
	q.deliver(Batch{Dst: MAC(1), Count: 1, Bytes: 1514})
	eng.Run()
	if fired != 0 {
		t.Fatal("masked queue must not interrupt")
	}
	q.SetMasked(false)
	if fired != 1 {
		t.Fatal("unmask with pending packets should fire")
	}
}

func TestIntrDisabledNoFire(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	fired := 0
	q.Sink = func(*Queue) { fired++ }
	q.deliver(Batch{Dst: MAC(1), Count: 1, Bytes: 1514})
	eng.Run()
	if fired != 0 {
		t.Fatal("disabled queue must not interrupt")
	}
	q.SetIntrEnabled(true)
	if fired != 1 {
		t.Fatal("enable with pending packets should fire")
	}
}

func TestDMACheckDropsOnFault(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	q.DMACheck = func(units.Size) error { return errFault }
	q.deliver(Batch{Dst: MAC(1), Count: 4, Bytes: 4 * 1514})
	if q.Stats.DMAFaults != 4 || q.Stats.RxPackets != 0 {
		t.Fatalf("faults=%d rx=%d", q.Stats.DMAFaults, q.Stats.RxPackets)
	}
}

var errFault = &faultErr{}

type faultErr struct{}

func (*faultErr) Error() string { return "iommu fault" }

func TestInternalSwitchBandwidthCap(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	src, dst := p.VFQueue(0), p.VFQueue(1)
	p.SetMAC(MAC(2), dst)
	dst.Sink = func(q *Queue) { q.Drain(-1) }
	dst.SetIntrEnabled(true)
	// Push 35 Mbit through the 2.8 Gbps internal path: should take ~12.5ms.
	var done units.Time
	total := units.Size(0)
	for i := 0; i < 100; i++ {
		b := Batch{Dst: MAC(2), Count: 29, Bytes: 29 * 1514}
		total += b.Bytes
		if end, ok := p.SendInternal(src, b); ok {
			done = end
		} else {
			t.Fatal("send failed")
		}
	}
	eng.Run()
	rate := units.RateOf(total, done.Sub(0))
	if rate.Gbps() < 2.7 || rate.Gbps() > 2.9 {
		t.Fatalf("internal rate = %v, want ~2.8 Gbps", rate)
	}
	if src.Stats.TxPackets != 2900 || dst.Stats.RxPackets != 2900 {
		t.Fatalf("tx=%d rx=%d", src.Stats.TxPackets, dst.Stats.RxPackets)
	}
}

func TestSendInternalUnknownDst(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	if _, ok := p.SendInternal(p.VFQueue(0), Batch{Dst: MAC(9), Count: 1, Bytes: 1514}); ok {
		t.Fatal("unknown destination should fail")
	}
	// Sending to self also fails.
	p.SetMAC(MAC(1), p.VFQueue(0))
	if _, ok := p.SendInternal(p.VFQueue(0), Batch{Dst: MAC(1), Count: 1, Bytes: 1514}); ok {
		t.Fatal("self-send should fail")
	}
	_ = eng
}

func TestMailboxRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	mb := p.Mailbox()
	var pfGot []Message
	mb.PFHandler = func(m Message) {
		pfGot = append(pfGot, m)
		mb.SendToVF(Message{Kind: MsgAck, VF: m.VF})
	}
	var vfGot []Message
	mb.SetVFHandler(2, func(m Message) { vfGot = append(vfGot, m) })
	if err := mb.SendToPF(Message{Kind: MsgSetMAC, VF: 2, Arg: 0xaabb}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(pfGot) != 1 || pfGot[0].Kind != MsgSetMAC || pfGot[0].Arg != 0xaabb {
		t.Fatalf("pf got %v", pfGot)
	}
	if len(vfGot) != 1 || vfGot[0].Kind != MsgAck {
		t.Fatalf("vf got %v", vfGot)
	}
	if mb.Doorbells != 2 {
		t.Fatalf("doorbells = %d", mb.Doorbells)
	}
}

func TestMailboxBusy(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	mb := p.Mailbox()
	if err := mb.SendToPF(Message{Kind: MsgSetMAC, VF: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mb.SendToPF(Message{Kind: MsgSetVLAN, VF: 0}); err == nil {
		t.Fatal("second send before consumption should fail")
	}
	// A different VF's slot is independent.
	if err := mb.SendToPF(Message{Kind: MsgSetVLAN, VF: 1}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// After delivery the slot frees up.
	if err := mb.SendToPF(Message{Kind: MsgSetVLAN, VF: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxBroadcast(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	mb := p.Mailbox()
	got := map[int]MsgKind{}
	for i := 0; i < 3; i++ {
		i := i
		mb.SetVFHandler(i, func(m Message) { got[i] = m.Kind })
	}
	mb.Broadcast(MsgLinkChange)
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("broadcast reached %d VFs", len(got))
	}
	for _, k := range got {
		if k != MsgLinkChange {
			t.Fatal("wrong kind")
		}
	}
}

func TestDrainConservesPacketsProperty(t *testing.T) {
	// delivered = drained + occupied + dropped, always.
	prop := func(raw []uint8) bool {
		eng := sim.NewEngine(1)
		p := New(eng, Config{Name: "e", NumVFs: 1, RingCap: 64})
		q := p.VFQueue(0)
		var delivered, drained, dropped int64
		for _, r := range raw {
			n := int(r%32) + 1
			q.deliver(Batch{Dst: MAC(1), Count: n, Bytes: units.Size(n) * 1514})
			delivered += int64(n)
			if r%3 == 0 {
				got, _ := q.Drain(int(r % 16))
				drained += int64(got)
			}
		}
		dropped = q.Stats.RxDropped
		return delivered == drained+int64(q.Occupied())+dropped
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMACString(t *testing.T) {
	if got := MAC(0x0123456789ab).String(); got != "01:23:45:67:89:ab" {
		t.Fatalf("MAC string = %q", got)
	}
}

func TestWireOverdriveDrops(t *testing.T) {
	// Offering far beyond line rate backs the wire up; once the backlog
	// exceeds the threshold the sender's excess is lost.
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	p.SetMAC(MAC(1), q)
	// 100 batches of 121 µs each, all at t=0: ~12 ms of line time.
	for i := 0; i < 100; i++ {
		p.ReceiveFromWire(Batch{Dst: MAC(1), Count: 10, Bytes: 15140})
	}
	eng.Run()
	if p.WireRxDropped == 0 {
		t.Fatal("overdriven wire should drop")
	}
	if p.WireRxPackets+p.WireRxDropped != 1000 {
		t.Fatalf("conservation: rx=%d dropped=%d", p.WireRxPackets, p.WireRxDropped)
	}
}

func TestPortAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	if p.Name() != "eth0" {
		t.Fatal("Name")
	}
	if p.Device() == nil || p.PFQueue() == nil {
		t.Fatal("Device/PFQueue")
	}
	q := p.VFQueue(0)
	if q.Name() != "eth0/vf0" || q.Port() != p {
		t.Fatal("queue accessors")
	}
	if q.masked {
		t.Fatal("fresh queue should be unmasked")
	}
	if p.InternalBacklog() != 0 {
		t.Fatal("fresh internal path should be idle")
	}
	if q.LastDrainWait() != 0 {
		t.Fatal("no drain yet")
	}
}

func TestMsgKindStrings(t *testing.T) {
	kinds := []MsgKind{MsgSetMAC, MsgSetMulticast, MsgSetVLAN, MsgReset,
		MsgLinkChange, MsgDeviceReset, MsgDriverRemove, MsgAck, MsgNack, MsgKind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d string %q duplicate/empty", int(k), s)
		}
		seen[s] = true
	}
}

func TestDrainLatencyAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	q.deliver(Batch{Dst: MAC(1), Count: 10, Bytes: 15140})
	eng.After(units.Duration(300*units.Microsecond), "drain", func() {
		n, _ := q.Drain(-1)
		if n != 10 {
			t.Errorf("drained %d", n)
		}
		if got := q.LastDrainWait(); got != 300*units.Microsecond {
			t.Errorf("wait = %v, want 300µs", got)
		}
	})
	eng.Run()
}

func TestDrainLatencyFIFOBlend(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	q.deliver(Batch{Dst: MAC(1), Count: 5, Bytes: 7570})
	eng.After(units.Duration(100*units.Microsecond), "second", func() {
		q.deliver(Batch{Dst: MAC(1), Count: 5, Bytes: 7570})
	})
	eng.After(units.Duration(200*units.Microsecond), "drain", func() {
		q.Drain(-1)
		// 5 packets waited 200µs, 5 waited 100µs → mean 150µs.
		if got := q.LastDrainWait(); got != 150*units.Microsecond {
			t.Errorf("wait = %v, want 150µs", got)
		}
	})
	eng.Run()
}

func TestTransmitToWire(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	var gotPkts int
	var gotBytes units.Size
	p.Egress = func(b Batch) {
		gotPkts += b.Count
		gotBytes += b.Bytes
	}
	if !p.TransmitToWire(q, Batch{Dst: MAC(0xff), Count: 10, Bytes: 15140}) {
		t.Fatal("transmit rejected")
	}
	eng.Run()
	if gotPkts != 10 || gotBytes != 15140 {
		t.Fatalf("egress got %d pkts %d bytes", gotPkts, gotBytes)
	}
	// Wire serialization: 15140 B at 1 Gbps ≈ 121 µs.
	if eng.Now() < units.Time(121*units.Microsecond) {
		t.Fatalf("delivered too early: %v", eng.Now())
	}
	if q.Stats.TxPackets != 10 || p.WireTxPackets != 10 {
		t.Fatal("tx counters")
	}
}

func TestTransmitToWireNoEgressDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	p.TransmitToWire(p.VFQueue(0), Batch{Count: 5, Bytes: 7570})
	eng.Run()
	if p.WireTxDropped != 5 {
		t.Fatalf("dropped = %d", p.WireTxDropped)
	}
}

func TestTransmitToWireOverdrive(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	p.Egress = func(Batch) {}
	sent, rejected := 0, 0
	for i := 0; i < 200; i++ {
		if p.TransmitToWire(p.VFQueue(0), Batch{Count: 10, Bytes: 15140}) {
			sent++
		} else {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("overdriven TX line should reject")
	}
	if sent == 0 {
		t.Fatal("some sends must make it")
	}
	eng.Run()
}

// newFilteredPort builds a port with the filter table a loaded 82576 port
// carries: the PF's MAC, one MAC per VF, and a VLAN filter per VF.
func newFilteredPort() *Port {
	p := New(sim.NewEngine(1), Config{Name: "eth0", NumVFs: 7})
	p.SetMAC(MAC(0x0a00), p.PFQueue())
	for i := 0; i < p.NumVFs(); i++ {
		p.SetMAC(MAC(0x0a01+uint64(i)), p.VFQueue(i))
		p.SetMACVLAN(MAC(0x0a01+uint64(i)), uint16(100+i), p.VFQueue(i))
	}
	return p
}

// TestClassifyVLANAllocationFree pins the per-batch L2 classification at
// zero allocations, for a match and for a miss.
func TestClassifyVLANAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := newFilteredPort()
	want := p.VFQueue(6)
	allocs := testing.AllocsPerRun(100, func() {
		if q, ok := p.ClassifyVLAN(MAC(0x0a07), 106); !ok || q != want {
			t.Fatal("VF6's VLAN filter did not match")
		}
		if _, ok := p.ClassifyVLAN(Broadcast, 0); ok {
			t.Fatal("broadcast matched a filter")
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs per ClassifyVLAN pair = %.0f, want 0", allocs)
	}
}

// TestFilterTableReplaceAndClear checks that reprogramming a (MAC, VLAN)
// filter retargets it in place and clearing one leaves the rest intact.
func TestFilterTableReplaceAndClear(t *testing.T) {
	p := newFilteredPort()
	p.SetMAC(MAC(0x0a01), p.VFQueue(3))
	if q, _ := p.ClassifyVLAN(MAC(0x0a01), 0); q != p.VFQueue(3) {
		t.Fatal("reprogrammed filter still steers to the old queue")
	}
	if n := len(p.l2); n != 15 {
		t.Fatalf("table holds %d filters, want 15", n)
	}
	p.ClearMACVLAN(MAC(0x0a04), 103)
	for i := 0; i < p.NumVFs(); i++ {
		_, ok := p.ClassifyVLAN(MAC(0x0a01+uint64(i)), uint16(100+i))
		if ok != (i != 3) {
			t.Fatalf("VF%d VLAN filter present = %v after clearing VF3's", i, ok)
		}
	}
}

// BenchmarkClassifyVLAN measures one L2 classification of a frame for the
// last-programmed VF's VLAN on a fully loaded port.
func BenchmarkClassifyVLAN(b *testing.B) {
	p := newFilteredPort()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ClassifyVLAN(MAC(0x0a07), 106)
	}
}
