// Package units provides the physical units used throughout the simulator:
// simulated time, data rates, data sizes, and CPU cycle arithmetic.
//
// Simulated time is kept in integer nanoseconds so that event ordering is
// exact and platform independent. Rates are kept in bits per second.
package units

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// String formats the duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// BitRate is a data rate in bits per second.
type BitRate int64

// Common rates.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps
)

// Mbps reports the rate in megabits per second.
func (r BitRate) Mbps() float64 { return float64(r) / float64(Mbps) }

// Gbps reports the rate in gigabits per second.
func (r BitRate) Gbps() float64 { return float64(r) / float64(Gbps) }

// String formats the rate using the most natural unit.
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2fGbps", r.Gbps())
	case r >= Mbps:
		return fmt.Sprintf("%.1fMbps", r.Mbps())
	case r >= Kbps:
		return fmt.Sprintf("%.1fKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Size is a data size in bytes.
type Size int64

// Common sizes.
const (
	Byte Size = 1
	KiB       = 1024 * Byte
	MiB       = 1024 * KiB
	GiB       = 1024 * MiB
)

// Bits reports the size in bits.
func (s Size) Bits() int64 { return int64(s) * 8 }

// String formats the size using the most natural binary unit.
func (s Size) String() string {
	switch {
	case s >= GiB:
		return fmt.Sprintf("%.2fGiB", float64(s)/float64(GiB))
	case s >= MiB:
		return fmt.Sprintf("%.2fMiB", float64(s)/float64(MiB))
	case s >= KiB:
		return fmt.Sprintf("%.2fKiB", float64(s)/float64(KiB))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// TransferTime reports how long moving s bytes takes at rate r.
// A zero or negative rate reports zero (instantaneous).
func TransferTime(s Size, r BitRate) Duration {
	if r <= 0 {
		return 0
	}
	return Duration(float64(s.Bits()) / float64(r) * float64(Second))
}

// RateOf reports the rate achieved by moving s bytes in d.
// A zero or negative duration reports zero.
func RateOf(s Size, d Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(float64(s.Bits()) / d.Seconds())
}

// Cycles is a count of CPU clock cycles.
type Cycles int64

// Frequency is a CPU clock frequency in hertz.
type Frequency int64

// Common frequencies.
const (
	Hz  Frequency = 1
	KHz           = 1000 * Hz
	MHz           = 1000 * KHz
	GHz           = 1000 * MHz
)

// CyclesIn reports how many cycles elapse in d at frequency f.
func (f Frequency) CyclesIn(d Duration) Cycles {
	return Cycles(float64(f) * d.Seconds())
}

// DurationOf reports how long c cycles take at frequency f.
// A zero or negative frequency reports zero.
func (f Frequency) DurationOf(c Cycles) Duration {
	if f <= 0 {
		return 0
	}
	return Duration(float64(c) / float64(f) * float64(Second))
}

// String formats the frequency using the most natural unit.
func (f Frequency) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.2fGHz", float64(f)/float64(GHz))
	case f >= MHz:
		return fmt.Sprintf("%.1fMHz", float64(f)/float64(MHz))
	default:
		return fmt.Sprintf("%dHz", int64(f))
	}
}
