// Package netstack models the transport behaviour the paper's figures
// depend on: interrupt-coalescing policies (fixed, dynamic IGB-style, and
// the paper's adaptive interrupt coalescing), and a steady-state TCP
// throughput model that captures §5.3's latency sensitivity ("Reducing
// interrupt frequency can minimize virtualization overhead, but it may
// increase network latency, hurting TCP throughput").
package netstack

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/units"
)

// ITRPolicy decides the interrupt rate (Hz) given the observed packet rate.
type ITRPolicy interface {
	// Rate reports the target interrupt frequency for the observed pps.
	Rate(pps float64) float64
	// Adaptive reports whether the policy needs periodic re-sampling.
	Adaptive() bool
	String() string
}

// FixedITR interrupts at a constant frequency regardless of load.
type FixedITR float64

// Rate implements ITRPolicy.
func (f FixedITR) Rate(float64) float64 { return float64(f) }

// Adaptive implements ITRPolicy.
func (f FixedITR) Adaptive() bool { return false }

func (f FixedITR) String() string {
	if float64(f) >= 1000 {
		return fmt.Sprintf("%gkHz", float64(f)/1000)
	}
	return fmt.Sprintf("%gHz", float64(f))
}

// DynamicITR is the IGB-style moderation: aim for a batch of
// model.DynamicITRTargetPackets per interrupt, clamped to the
// [model.DynamicITRMinHz, model.DynamicITRMaxHz] band.
type DynamicITR struct{}

// Rate implements ITRPolicy.
func (DynamicITR) Rate(pps float64) float64 {
	r := pps / model.DynamicITRTargetPackets
	if r < model.DynamicITRMinHz {
		r = model.DynamicITRMinHz
	}
	if r > model.DynamicITRMaxHz {
		r = model.DynamicITRMaxHz
	}
	return r
}

// Adaptive implements ITRPolicy.
func (DynamicITR) Adaptive() bool { return true }

func (DynamicITR) String() string { return "dynamic" }

// AIC is the paper's adaptive interrupt coalescing (§5.3): overflow
// avoidance with a redundancy factor and a latency floor.
//
//	bufs = min(ap_bufs, dd_bufs)            (1)
//	t_d·r = bufs/pps                        (2)
//	IF = 1/t_d = max(pps·r/bufs, lif)       (3), see model.AICRedundancyRate
type AIC struct {
	Bufs  float64 // eq. (1)
	R     float64 // redundancy rate
	LifHz float64 // minimal acceptable interrupt frequency
}

// DefaultAIC returns AIC with the paper's parameters (64 bufs, r=1.2).
func DefaultAIC() AIC {
	return AIC{Bufs: model.AICBufs, R: model.AICRedundancyRate, LifHz: model.AICMinHz}
}

// Rate implements ITRPolicy.
func (a AIC) Rate(pps float64) float64 {
	if a.Bufs <= 0 {
		return a.LifHz
	}
	r := pps * a.R / a.Bufs
	if r < a.LifHz {
		r = a.LifHz
	}
	return r
}

// Adaptive implements ITRPolicy.
func (a AIC) Adaptive() bool { return true }

func (a AIC) String() string { return "AIC" }

// TCPSteadyState solves the fixed point of rate ↔ interrupt frequency for a
// 1 GbE TCP stream under a coalescing policy: throughput is capped by the
// line (model.LineRateTCP), by window/RTT (model.TCPWindow over an RTT that
// grows as interrupts coalesce), and by the receive-buffer overflow
// equilibrium (TCP backs off until the per-interrupt batch fits
// model.SocketBurstCapacity).
func TCPSteadyState(policy ITRPolicy) units.BitRate {
	rate := float64(model.LineRateTCP)
	frameBits := float64(model.FrameSize.Bits())
	for i := 0; i < 20; i++ {
		pps := rate / frameBits
		ifHz := policy.Rate(pps)
		if ifHz <= 0 {
			ifHz = 1
		}
		// Window / RTT cap.
		rtt := model.TCPBaseRTT.Seconds() + model.TCPCoalesceRTTFactor/ifHz
		capWindow := float64(model.TCPWindow.Bits()) / rtt
		// Overflow equilibrium cap.
		capOverflow := float64(model.SocketBurstCapacity) * ifHz * frameBits
		next := float64(model.LineRateTCP)
		if capWindow < next {
			next = capWindow
		}
		if capOverflow < next {
			next = capOverflow
		}
		if diff := next - rate; diff < 1 && diff > -1 {
			rate = next
			break
		}
		// Damped update for stability.
		rate = (rate + next) / 2
	}
	return units.BitRate(rate)
}
