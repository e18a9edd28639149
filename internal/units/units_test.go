package units

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(3 * Millisecond)
	if t1 != Time(3_000_000) {
		t.Fatalf("Add: got %d, want 3000000", int64(t1))
	}
	if d := t1.Sub(t0); d != 3*Millisecond {
		t.Fatalf("Sub: got %v, want 3ms", d)
	}
	if s := t1.Seconds(); s != 0.003 {
		t.Fatalf("Seconds: got %v, want 0.003", s)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	d := 1500 * Millisecond
	if got := d.Seconds(); got != 1.5 {
		t.Fatalf("round trip: got %v", got)
	}
	if back := Duration(d.Seconds() * float64(Second)); back != d {
		t.Fatalf("back = %v, want %v", back, d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{5 * Millisecond, "5.000ms"},
		{7 * Microsecond, "7.000µs"},
		{42 * Nanosecond, "42ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestBitRateString(t *testing.T) {
	cases := []struct {
		r    BitRate
		want string
	}{
		{9480 * Mbps, "9.48Gbps"},
		{940 * Mbps, "940.0Mbps"},
		{12 * Kbps, "12.0Kbps"},
		{999, "999bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.r), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 1500 bytes at 1 Gbps = 12 µs.
	d := TransferTime(1500*Byte, Gbps)
	if d != 12*Microsecond {
		t.Fatalf("TransferTime = %v, want 12µs", d)
	}
	if TransferTime(1500*Byte, 0) != 0 {
		t.Fatal("zero rate should transfer instantaneously")
	}
}

func TestRateOf(t *testing.T) {
	// 1500 bytes in 12 µs = 1 Gbps.
	r := RateOf(1500*Byte, 12*Microsecond)
	if r != Gbps {
		t.Fatalf("RateOf = %v, want 1Gbps", r)
	}
	if RateOf(1500*Byte, 0) != 0 {
		t.Fatal("zero duration should report zero rate")
	}
}

func TestCycleConversion(t *testing.T) {
	f := 2800 * MHz
	c := f.CyclesIn(Millisecond)
	if c != 2_800_000 {
		t.Fatalf("CyclesIn: got %d, want 2800000", int64(c))
	}
	d := f.DurationOf(2800)
	if d != Microsecond {
		t.Fatalf("DurationOf: got %v, want 1µs", d)
	}
	if (Frequency(0)).DurationOf(100) != 0 {
		t.Fatal("zero frequency should report zero duration")
	}
}

func TestTransferRateRoundTripProperty(t *testing.T) {
	// For any positive size and reasonable rate, RateOf(TransferTime)
	// recovers the rate to within rounding.
	prop := func(rawSize uint32, rawRate uint32) bool {
		s := Size(rawSize%1_000_000 + 1)
		r := BitRate(rawRate%10_000+1) * Mbps
		d := TransferTime(s, r)
		if d <= 0 {
			// Sub-nanosecond transfer; rounding dominates. Accept.
			return true
		}
		got := RateOf(s, d)
		// Within 1% of original (integer ns rounding).
		diff := float64(got-r) / float64(r)
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.01
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCycleConversionRoundTripProperty(t *testing.T) {
	f := 2800 * MHz
	prop := func(raw uint32) bool {
		c := Cycles(raw%1_000_000_000 + 1000)
		d := f.DurationOf(c)
		back := f.CyclesIn(d)
		diff := back - c
		if diff < 0 {
			diff = -diff
		}
		// Integer-nanosecond rounding costs at most ~3 cycles at 2.8 GHz.
		return diff <= 4
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeString(t *testing.T) {
	if got := (512 * MiB).String(); got != "512.00MiB" {
		t.Fatalf("got %q", got)
	}
	if got := (100 * Byte).String(); got != "100B" {
		t.Fatalf("got %q", got)
	}
}

func TestFrequencyString(t *testing.T) {
	if got := (2800 * MHz).String(); got != "2.80GHz" {
		t.Fatalf("got %q", got)
	}
	if got := (250 * MHz).String(); got != "250.0MHz" {
		t.Fatalf("got %q", got)
	}
}
