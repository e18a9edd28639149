package netstack

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/units"
)

func TestFixedITR(t *testing.T) {
	p := FixedITR(2000)
	if p.Rate(100000) != 2000 || p.Rate(10) != 2000 {
		t.Fatal("fixed rate should ignore pps")
	}
	if p.Adaptive() {
		t.Fatal("fixed is not adaptive")
	}
	if p.String() != "2kHz" {
		t.Fatalf("string = %q", p.String())
	}
	if FixedITR(500).String() != "500Hz" {
		t.Fatal("sub-kHz string")
	}
}

func TestDynamicITRClamps(t *testing.T) {
	d := DynamicITR{}
	// Low pps clamps to min.
	if got := d.Rate(1000); got != model.DynamicITRMinHz {
		t.Fatalf("low-load rate = %v", got)
	}
	// Line-rate pps clamps to max.
	if got := d.Rate(200000); got != model.DynamicITRMaxHz {
		t.Fatalf("high-load rate = %v", got)
	}
	// Mid-range targets the batch size.
	if got := d.Rate(50000); got != 5000 {
		t.Fatalf("mid-load rate = %v", got)
	}
	if !d.Adaptive() {
		t.Fatal("dynamic is adaptive")
	}
}

func TestAICFormula(t *testing.T) {
	a := DefaultAIC()
	// 77,600 pps (≈940 Mbps at 1514 B): IF = pps·1.2/64 ≈ 1455 Hz.
	got := a.Rate(77600)
	if got < 1450 || got < model.AICMinHz && got > 1460 {
		t.Fatalf("AIC rate = %v", got)
	}
	// Low pps floors at lif.
	if got := a.Rate(100); got != model.AICMinHz {
		t.Fatalf("low-load AIC = %v", got)
	}
	if !a.Adaptive() {
		t.Fatal("AIC is adaptive")
	}
}

func TestAICAvoidsOverflowProperty(t *testing.T) {
	// For any load, AIC's per-interrupt batch stays within bufs/r·... —
	// i.e. under the socket burst capacity, so no loss (Fig. 10's claim).
	a := DefaultAIC()
	prop := func(raw uint32) bool {
		pps := float64(raw%1_000_000) + 1
		batch := batchAt(a, pps)
		return batch <= float64(model.SocketBurstCapacity)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAICMonotoneProperty(t *testing.T) {
	// AIC interrupt frequency is non-decreasing in pps ("The interrupt
	// frequency in AIC increases adaptively as the throughput increases").
	a := DefaultAIC()
	prop := func(x, y uint32) bool {
		p1, p2 := float64(x%2_000_000), float64(y%2_000_000)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return a.Rate(p1) <= a.Rate(p2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPSteadyStateMatchesPaper(t *testing.T) {
	// 20 kHz, 2 kHz and AIC hold the 940 Mbps line rate (Fig. 9).
	for _, pol := range []ITRPolicy{FixedITR(20000), FixedITR(2000), DefaultAIC()} {
		rate := TCPSteadyState(pol)
		if rate.Mbps() < 930 {
			t.Fatalf("%v: TCP rate = %v, want ≥930 Mbps", pol, rate)
		}
	}
	// 1 kHz drops ~9.6%.
	rate := TCPSteadyState(FixedITR(1000))
	drop := (940 - rate.Mbps()) / 940
	if drop < 0.05 || drop > 0.15 {
		t.Fatalf("1 kHz TCP = %v Mbps (drop %.1f%%), want ≈9.6%% drop", rate.Mbps(), drop*100)
	}
}

func TestTCPWindowLimitAtVeryLowIF(t *testing.T) {
	r100 := TCPSteadyState(FixedITR(100))
	r1000 := TCPSteadyState(FixedITR(1000))
	if r100 >= r1000 {
		t.Fatalf("lower IF should hurt more: 100Hz=%v 1kHz=%v", r100, r1000)
	}
}

func TestTCPMonotoneInIFProperty(t *testing.T) {
	// Steady-state TCP throughput is non-decreasing in interrupt
	// frequency (more interrupts = less latency and smaller batches).
	prop := func(a, b uint16) bool {
		f1 := float64(a%20000) + 200
		f2 := float64(b%20000) + 200
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		r1 := TCPSteadyState(FixedITR(f1))
		r2 := TCPSteadyState(FixedITR(f2))
		return r1 <= r2+units.BitRate(1000) // tolerance for solver wobble
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPGoodput(t *testing.T) {
	// At 2 kHz a 957 Mbps stream (79 k pps, 39.5/interrupt) fits.
	rate, ifHz := udpGoodput(model.LineRateUDP, model.FrameSize, FixedITR(2000), model.SocketBurstCapacity)
	if rate != model.LineRateUDP || ifHz != 2000 {
		t.Fatalf("2 kHz UDP = %v @ %v", rate, ifHz)
	}
	// At 1 kHz the 79-packet batches exceed the 70-packet burst: loss.
	rate, _ = udpGoodput(model.LineRateUDP, model.FrameSize, FixedITR(1000), model.SocketBurstCapacity)
	if rate >= model.LineRateUDP {
		t.Fatal("1 kHz UDP should lose packets")
	}
	if rate.Mbps() < 800 {
		t.Fatalf("1 kHz UDP = %v, unreasonably low", rate)
	}
	// AIC never loses.
	rate, _ = udpGoodput(2800*units.Mbps, model.FrameSize, DefaultAIC(), model.SocketBurstCapacity)
	if rate != 2800*units.Mbps {
		t.Fatalf("AIC at 2.8 Gbps = %v, want lossless", rate)
	}
}

func TestBatchAt(t *testing.T) {
	if got := batchAt(FixedITR(1000), 70000); got != 70 {
		t.Fatalf("batch = %v", got)
	}
}

// batchAt reports the expected per-interrupt packet batch for a policy at
// the given packet rate.
func batchAt(p ITRPolicy, pps float64) float64 {
	r := p.Rate(pps)
	if r <= 0 {
		return pps
	}
	return pps / r
}

// udpGoodput is the analytic loss-adjusted receive goodput of a CBR UDP
// stream: packets beyond the socket burst capacity per interrupt interval
// are dropped (§5.3's overflow behaviour).
func udpGoodput(offered units.BitRate, frame units.Size, policy ITRPolicy, burst int) (units.BitRate, float64) {
	pps := model.PacketsPerSecond(offered, frame)
	ifHz := policy.Rate(pps)
	if ifHz <= 0 {
		return 0, 0
	}
	batch := pps / ifHz
	if batch <= float64(burst) {
		return offered, ifHz
	}
	return units.BitRate(float64(offered) * float64(burst) / batch), ifHz
}
