package nic

import (
	"testing"

	"repro/internal/model"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestMailboxBusyCounter(t *testing.T) {
	eng := sim.NewEngine(1)
	mb := newTestPort(eng).Mailbox()
	if err := mb.SendToPF(Message{Kind: MsgSetMAC, VF: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mb.SendToPF(Message{Kind: MsgSetVLAN, VF: 0}); err == nil {
		t.Fatal("busy slot should reject")
	}
	mb.SetVFHandler(0, func(Message) {})
	if err := mb.SendToVF(Message{Kind: MsgAck, VF: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mb.SendToVF(Message{Kind: MsgAck, VF: 0}); err == nil {
		t.Fatal("busy ToVF slot should reject")
	}
}

func TestMailboxOnSendDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	mb := newTestPort(eng).Mailbox()
	var got int
	mb.PFHandler = func(Message) { got++ }
	drop := true
	mb.OnSend = func(dir Direction, m Message) SendVerdict {
		if dir != ToPF {
			t.Fatalf("direction = %v", dir)
		}
		return SendVerdict{Drop: drop}
	}
	// A dropped send reports success to the sender and frees the slot.
	if err := mb.SendToPF(Message{Kind: MsgSetMAC, VF: 3}); err != nil {
		t.Fatal(err)
	}
	drop = false
	if err := mb.SendToPF(Message{Kind: MsgSetMAC, VF: 3}); err != nil {
		t.Fatal("slot should be free after a dropped send")
	}
	eng.RunUntil(sim.Forever)
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (first send lost)", got)
	}
}

func TestMailboxOnSendDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	mb := newTestPort(eng).Mailbox()
	const extra = 300 * units.Microsecond
	var at units.Time
	mb.PFHandler = func(Message) { at = eng.Now() }
	mb.OnSend = func(Direction, Message) SendVerdict { return SendVerdict{Delay: extra} }
	if err := mb.SendToPF(Message{Kind: MsgSetMAC, VF: 0}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Forever)
	if want := units.Time(model.MailboxLatency + extra); at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestMailboxBroadcastCountsDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	mb := newTestPort(eng).Mailbox()
	got := make([]int, 3)
	for i := range got {
		mb.SetVFHandler(i, func(Message) { got[i]++ })
	}
	// Wedge VF 1's ToVF slot so the broadcast can't reach it.
	if err := mb.SendToVF(Message{Kind: MsgAck, VF: 1}); err != nil {
		t.Fatal(err)
	}
	// No engine run yet: the slot is still occupied when the broadcast posts.
	if posted := mb.Broadcast(MsgLinkChange); posted != 2 {
		t.Fatalf("posted = %d, want 2", posted)
	}
	// VF 1 hears only the message that wedged its slot.
	eng.RunUntil(sim.Forever)
	if got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("deliveries per VF = %v, want [1 1 1]", got)
	}
}

func TestLinkDownDropsWireTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	p.SetMAC(MAC(0xaa), p.VFQueue(0))
	p.SetLink(false)
	p.ReceiveFromWire(Batch{Dst: MAC(0xaa), Count: 10, Bytes: 15140})
	if n := p.InFlightPackets(); n != 0 {
		t.Fatalf("in flight = %d; want all dropped at the PHY", n)
	}
	eng.RunUntil(sim.Forever)
	if n := p.VFQueue(0).Stats.RxPackets; n != 0 {
		t.Fatalf("queued = %d; want all dropped at the PHY", n)
	}
	p.SetLink(true)
	p.ReceiveFromWire(Batch{Dst: MAC(0xaa), Count: 10, Bytes: 15140})
	eng.RunUntil(sim.Forever)
	if p.VFQueue(0).Stats.RxPackets != 10 {
		t.Fatalf("link restored but rx = %d", p.VFQueue(0).Stats.RxPackets)
	}
}

func TestQueueStallDropsAndRecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	q := p.VFQueue(0)
	q.SetIntrEnabled(true)
	var fired int
	q.Sink = func(*Queue) { fired++ }
	p.SetMAC(MAC(0xaa), q)

	q.SetStalled(true)
	p.ReceiveFromWire(Batch{Dst: MAC(0xaa), Count: 5, Bytes: 7570})
	eng.RunUntil(sim.Forever)
	if q.Stats.RxPackets != 0 || q.Occupied() != 0 || fired != 0 || p.InFlightPackets() != 0 {
		t.Fatalf("stalled queue: rx=%d occ=%d intr=%d in flight=%d",
			q.Stats.RxPackets, q.Occupied(), fired, p.InFlightPackets())
	}
	q.SetStalled(false)
	p.ReceiveFromWire(Batch{Dst: MAC(0xaa), Count: 5, Bytes: 7570})
	eng.RunUntil(sim.Forever)
	if q.Occupied() != 5 || fired == 0 {
		t.Fatalf("unstalled queue: occ=%d intr=%d", q.Occupied(), fired)
	}
}

func TestVFFLRResetsQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	sriov, _ := pcie.SRIOVCapAt(p.PF().Config())
	sriov.SetNumVFs(7)
	p.PF().ConfigWrite16(sriov.Offset()+0x08, pcie.SRIOVCtlVFEnable|pcie.SRIOVCtlVFMSE)
	q := p.VFQueue(2)
	q.SetIntrEnabled(true)
	q.SetITR(100 * units.Microsecond)
	p.SetMAC(MAC(0xcc), q)
	p.ReceiveFromWire(Batch{Dst: MAC(0xcc), Count: 3, Bytes: 4542})
	eng.RunUntil(sim.Forever)
	if q.Occupied() != 3 {
		t.Fatalf("occupied = %d", q.Occupied())
	}

	// The guest initiates FLR through the function's PCIe capability; the
	// device-side hook must reset the queue's hardware state.
	fn := q.Function()
	cap, ok := pcie.PCIeCapAt(fn.Config())
	devCap := cap.DevCtlOffset() - pcie.PCIeDevCtlOff + pcie.PCIeDevCapOff
	if !ok || fn.Config().Read32(devCap)&pcie.PCIeDevCapFLR == 0 {
		t.Fatal("VF should advertise FLR")
	}
	fn.ConfigWrite16(cap.DevCtlOffset(), pcie.PCIeDevCtlFLR)
	if q.Occupied() != 0 || q.IntrEnabled() || q.itrInterval != 0 {
		t.Fatalf("post-FLR state: occ=%d intr=%v itr=%v",
			q.Occupied(), q.IntrEnabled(), q.itrInterval)
	}
	if fn.Config().Read16(cap.DevCtlOffset())&pcie.PCIeDevCtlFLR != 0 {
		t.Fatal("initiate-FLR bit should self-clear")
	}
}

func TestDeviceResetClearsAllQueues(t *testing.T) {
	eng := sim.NewEngine(1)
	p := newTestPort(eng)
	for i := 0; i < 3; i++ {
		q := p.VFQueue(i)
		q.SetIntrEnabled(true)
		p.SetMAC(MAC(0xa0+uint64(i)), q)
		p.ReceiveFromWire(Batch{Dst: MAC(0xa0 + uint64(i)), Count: 2, Bytes: 3028})
	}
	if err := p.Mailbox().SendToPF(Message{Kind: MsgSetMAC, VF: 5}); err != nil {
		t.Fatal(err)
	}
	// Reset before the doorbell fires: the in-flight message must die.
	p.ResetDevice()
	for i := 0; i < 3; i++ {
		if q := p.VFQueue(i); q.Occupied() != 0 || q.IntrEnabled() {
			t.Fatalf("vf%d survived the reset: occ=%d intr=%v", i, q.Occupied(), q.IntrEnabled())
		}
	}
	// The in-flight mailbox message died with the reset: its slot is free
	// and its doorbell must not fire.
	var got int
	p.Mailbox().PFHandler = func(Message) { got++ }
	if err := p.Mailbox().SendToPF(Message{Kind: MsgSetMAC, VF: 5}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Forever)
	if got != 1 {
		t.Fatalf("delivered %d, want only the post-reset message", got)
	}
}
