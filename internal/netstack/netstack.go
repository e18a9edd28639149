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

// DynamicITR is the IGB-style moderation: aim for a target batch size,
// clamped to a frequency band.
type DynamicITR struct {
	TargetPackets float64
	MinHz, MaxHz  float64
}

// DefaultDynamicITR returns the model's dynamic profile.
func DefaultDynamicITR() DynamicITR {
	return DynamicITR{
		TargetPackets: model.DynamicITRTargetPackets,
		MinHz:         model.DynamicITRMinHz,
		MaxHz:         model.DynamicITRMaxHz,
	}
}

// Rate implements ITRPolicy.
func (d DynamicITR) Rate(pps float64) float64 {
	if d.TargetPackets <= 0 {
		return d.MaxHz
	}
	r := pps / d.TargetPackets
	if r < d.MinHz {
		r = d.MinHz
	}
	if r > d.MaxHz {
		r = d.MaxHz
	}
	return r
}

// Adaptive implements ITRPolicy.
func (d DynamicITR) Adaptive() bool { return true }

func (d DynamicITR) String() string { return "dynamic" }

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

// TCPParams parameterize the steady-state model.
type TCPParams struct {
	Line      units.BitRate // path capacity (goodput at MTU framing)
	Frame     units.Size    // wire bytes per segment
	Window    units.Size    // effective window
	BaseRTT   units.Duration
	RTTFactor float64 // added RTT per unit interrupt interval
	Burst     int     // loss-free packets per interrupt (socket burst)
}

// DefaultTCPParams returns the calibrated parameters for a 1 GbE stream.
func DefaultTCPParams() TCPParams {
	return TCPParams{
		Line:      model.LineRateTCP,
		Frame:     model.FrameSize,
		Window:    model.TCPWindow,
		BaseRTT:   model.TCPBaseRTT,
		RTTFactor: model.TCPCoalesceRTTFactor,
		Burst:     model.SocketBurstCapacity,
	}
}

// TCPSteadyState solves the fixed point of rate ↔ interrupt frequency for a
// coalescing policy: throughput is capped by the line, by window/RTT (RTT
// grows as interrupts coalesce), and by the receive-buffer overflow
// equilibrium (TCP backs off until the per-interrupt batch fits the socket
// burst capacity).
func TCPSteadyState(p TCPParams, policy ITRPolicy) (units.BitRate, float64) {
	rate := float64(p.Line)
	frameBits := float64(p.Frame.Bits())
	var ifHz float64
	for i := 0; i < 20; i++ {
		pps := rate / frameBits
		ifHz = policy.Rate(pps)
		if ifHz <= 0 {
			ifHz = 1
		}
		// Window / RTT cap.
		rtt := p.BaseRTT.Seconds() + p.RTTFactor/ifHz
		capWindow := float64(p.Window.Bits()) / rtt
		// Overflow equilibrium cap.
		capOverflow := float64(p.Burst) * ifHz * frameBits
		next := float64(p.Line)
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
	return units.BitRate(rate), ifHz
}
