package drivers

import (
	"testing"

	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// vfNotices records the PF→VF messages the mailbox carries from now on,
// letting every one through.
func vfNotices(mb *nic.Mailbox) *[]nic.Message {
	var got []nic.Message
	mb.OnSend = func(dir nic.Direction, m nic.Message) nic.SendVerdict {
		if dir == nic.ToVF {
			got = append(got, m)
		}
		return nic.SendVerdict{}
	}
	return &got
}

// vlanApplied reports whether the PF driver holds a (vf, vlan) filter.
func vlanApplied(pf *PFDriver, vf int, vlan uint16) bool {
	for _, v := range pf.VFVLANs(vf) {
		if v == vlan {
			return true
		}
	}
	return false
}

func TestMailboxRetryThenSuccess(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.port.Obs = obs.NewRegistry()
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	r.eng.RunUntil(sim.Forever)
	if !drv.MACConfirmed {
		t.Fatal("MAC not confirmed")
	}

	// Lose the first two VLAN requests; the third transmission gets through.
	mb := r.port.Mailbox()
	drops := 0
	mb.OnSend = func(dir nic.Direction, m nic.Message) nic.SendVerdict {
		if dir == nic.ToPF && m.Kind == nic.MsgSetVLAN && drops < 2 {
			drops++
			return nic.SendVerdict{Drop: true}
		}
		return nic.SendVerdict{}
	}
	timeouts := r.port.Obs.Get("mailbox.timeouts")
	if err := drv.JoinVLAN(100); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Forever)
	timeouts = r.port.Obs.Get("mailbox.timeouts") - timeouts
	if drv.MboxRetries != 2 || timeouts != 2 {
		t.Fatalf("retries=%d timeouts=%d, want 2/2", drv.MboxRetries, timeouts)
	}
	if drv.MboxFailures != 0 {
		t.Fatalf("failures = %d", drv.MboxFailures)
	}
	if drops != 2 {
		t.Fatalf("mailbox dropped = %d, want 2", drops)
	}
	if !vlanApplied(r.pf, 0, 100) {
		t.Fatal("VLAN join lost despite retries")
	}
	if !drv.Healthy() {
		t.Fatal("driver should be healthy after recovery")
	}
}

func TestMailboxRetryExhaustion(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.port.Obs = obs.NewRegistry()
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	r.eng.RunUntil(sim.Forever)

	// Lose every VLAN request: the driver must give up after
	// MailboxMaxAttempts and declare the channel dead.
	mb := r.port.Mailbox()
	mb.OnSend = func(dir nic.Direction, m nic.Message) nic.SendVerdict {
		if dir == nic.ToPF && m.Kind == nic.MsgSetVLAN {
			return nic.SendVerdict{Drop: true}
		}
		return nic.SendVerdict{}
	}
	timeouts := r.port.Obs.Get("mailbox.timeouts")
	if err := drv.JoinVLAN(100); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Forever)
	timeouts = r.port.Obs.Get("mailbox.timeouts") - timeouts
	if drv.MboxFailures != 1 {
		t.Fatalf("failures = %d, want 1", drv.MboxFailures)
	}
	if want := int64(model.MailboxMaxAttempts - 1); drv.MboxRetries != want {
		t.Fatalf("retries = %d, want %d", drv.MboxRetries, want)
	}
	if want := int64(model.MailboxMaxAttempts); timeouts != want {
		t.Fatalf("timeouts = %d, want %d", timeouts, want)
	}
	if vlanApplied(r.pf, 0, 100) {
		t.Fatal("abandoned request must not apply")
	}
	if drv.Healthy() {
		t.Fatal("dead mailbox channel should read unhealthy")
	}

	// The watchdog path recovers it: FLR, reprogram, re-request the MAC
	// (which the fault does not drop), channel alive again.
	drv.TryRecover()
	r.eng.RunUntil(sim.Forever)
	if drv.Reinits != 1 {
		t.Fatalf("reinits = %d, want 1", drv.Reinits)
	}
	if !drv.MACConfirmed || !drv.Healthy() {
		t.Fatalf("post-watchdog: macOK=%v healthy=%v", drv.MACConfirmed, drv.Healthy())
	}
}

func TestGlobalResetReinitsVF(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	r.eng.RunUntil(sim.Forever)
	if !drv.MACConfirmed || !drv.Queue().IntrEnabled() {
		t.Fatal("attach incomplete")
	}

	notices := vfNotices(r.port.Mailbox())
	r.pf.GlobalReset()
	// Immediately after the broadcast lands the VF is mid-reset.
	r.eng.RunUntil(r.eng.Now().Add(model.DeviceResetNotice + 10*units.Microsecond))
	if drv.Healthy() {
		t.Fatal("VF should be unhealthy during the reset window")
	}
	r.eng.RunUntil(sim.Forever)
	if drv.Reinits != 1 {
		t.Fatalf("reinits = %d, want 1", drv.Reinits)
	}
	if n := *notices; len(n) == 0 || n[0] != (nic.Message{Kind: nic.MsgDeviceReset, VF: 0}) {
		t.Fatalf("PF→VF messages %v, want the device-reset notification first", n)
	}
	if !drv.MACConfirmed || !drv.Queue().IntrEnabled() || !drv.Healthy() {
		t.Fatalf("post-reset: macOK=%v intr=%v healthy=%v",
			drv.MACConfirmed, drv.Queue().IntrEnabled(), drv.Healthy())
	}
}

func TestWatchdogBackoff(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	r.eng.RunUntil(sim.Forever)

	// Disable interrupts behind the driver's back so the device looks dead,
	// then hammer the watchdog: only the first call may reset.
	drv.Queue().SetIntrEnabled(false)
	drv.TryRecover()
	if drv.Reinits != 1 {
		t.Fatalf("reinits = %d, want 1", drv.Reinits)
	}
	r.eng.RunUntil(sim.Forever) // reinit completes, device healthy again
	drv.Queue().SetIntrEnabled(false)
	drv.TryRecover() // inside the backoff window → no reset
	if drv.Reinits != 1 {
		t.Fatalf("watchdog ignored backoff: reinits = %d", drv.Reinits)
	}
	r.eng.RunUntil(r.eng.Now().Add(model.WatchdogResetBackoff + units.Millisecond))
	drv.TryRecover()
	if drv.Reinits != 2 {
		t.Fatalf("watchdog should fire after backoff: reinits = %d", drv.Reinits)
	}
}

// TestWatchdogBackoffAtTimeZero is the regression test for the t=0 edge:
// lastWatchdog was compared against a zero sentinel, so a watchdog reset at
// sim-time zero was conflated with "never fired" and the next poll reset
// again inside the backoff window.
func TestWatchdogBackoffAtTimeZero(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))

	// No Run yet: the device dies and the watchdog fires at exactly t=0.
	if r.eng.Now() != 0 {
		t.Fatalf("rig not at time zero: %v", r.eng.Now())
	}
	drv.Queue().SetIntrEnabled(false)
	drv.TryRecover()
	if drv.Reinits != 1 {
		t.Fatalf("t=0 watchdog did not reset: reinits = %d", drv.Reinits)
	}

	r.eng.RunUntil(sim.Forever) // reinit completes well inside the backoff window
	if now := r.eng.Now(); now.Sub(0) >= model.WatchdogResetBackoff {
		t.Fatalf("setup drifted past the backoff window: now = %v", now)
	}
	drv.Queue().SetIntrEnabled(false)
	drv.TryRecover() // a t=0 reset must be rate-limited like any other
	if drv.Reinits != 1 {
		t.Fatalf("t=0 reset was not rate-limited: reinits = %d", drv.Reinits)
	}

	r.eng.RunUntil(r.eng.Now().Add(model.WatchdogResetBackoff + units.Millisecond))
	drv.TryRecover()
	if drv.Reinits != 2 {
		t.Fatalf("watchdog should fire after backoff: reinits = %d", drv.Reinits)
	}
}
