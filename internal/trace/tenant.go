package trace

// Multi-tenant scenario primitives. A consolidation scenario gives each
// tenant (a mail server, a web VM, a home directory) its own slice of
// the logical address space and its own request stream; the streams
// merge time-ordered onto one device, and per-tenant latency is
// attributed back by address range. Diurnal shapes the merged stream's
// arrival rate with a burst envelope, the production traffic pattern
// the fleet engine already models per-device.

import (
	"math"

	"cagc/internal/event"
)

// TenantRange names one tenant's slice of the logical address space and
// its latency SLO. Base/Pages partition the device: a request belongs
// to the tenant whose range contains its first logical page.
type TenantRange struct {
	Name  string
	Base  uint64 // first logical page of the tenant's namespace
	Pages uint64 // namespace size in pages
	// SLO is the per-request latency objective; responses slower than
	// this count as violations. Zero disables violation counting.
	SLO event.Time
}

// Diurnal reshapes a stream's arrival rate with a sinusoidal envelope:
// rate(t) = 1 + Amp·sin(2πt/Period), evaluated at the input stream's
// clock. Each inter-arrival gap is divided by the instantaneous rate,
// so Amp>0 alternates bursts (gaps compressed up to 1/(1+Amp)) with
// lulls (stretched up to 1/(1-Amp)). Amp must be in [0,1); the output
// stays time-ordered because the rate is always positive. It implements
// ErrSource.
type Diurnal struct {
	Src    Source
	Period event.Time // envelope period on the input clock
	Amp    float64    // burst amplitude in [0,1)

	started bool
	lastIn  event.Time
	lastOut event.Time
}

// Next implements Source.
func (d *Diurnal) Next() (Request, bool) {
	r, ok := d.Src.Next()
	if !ok {
		return Request{}, false
	}
	if d.Period <= 0 || d.Amp == 0 {
		return r, true
	}
	if !d.started {
		d.started = true
		d.lastIn = r.At
		d.lastOut = r.At
		return r, true
	}
	gap := r.At - d.lastIn
	if gap < 0 {
		gap = 0
	}
	// Rate at the midpoint of the gap, on the input clock: stable
	// against gap length and exactly reproducible run to run.
	mid := d.lastIn + gap/2
	phase := 2 * math.Pi * float64(mid%d.Period) / float64(d.Period)
	rate := 1 + d.Amp*math.Sin(phase)
	d.lastIn = r.At
	d.lastOut += event.Time(float64(gap) / rate)
	r.At = d.lastOut
	return r, true
}

// Err implements ErrSource by delegating to the wrapped source.
func (d *Diurnal) Err() error { return SourceErr(d.Src) }
