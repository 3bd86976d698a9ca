package trace

import (
	"fmt"
	"math/rand"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

// Spec parameterizes a synthetic content-annotated workload. The three
// paper workloads are available as presets (see presets.go); Spec is
// exported so studies can sweep any dimension.
type Spec struct {
	Name string

	// WriteRatio is the fraction of non-trim requests that are writes
	// (Table II).
	WriteRatio float64
	// DedupRatio is the probability that a written page's content
	// duplicates popular existing content (Table II's dedup ratio).
	DedupRatio float64
	// AvgReqPages is the mean request length in pages; lengths are
	// geometric with this mean (>= 1).
	AvgReqPages float64
	// LogicalPages is the size of the logical address space the
	// workload touches.
	LogicalPages uint64
	// Requests is the number of requests to generate.
	Requests int
	// MeanInterArrival is the mean inter-arrival time averaged over the
	// whole stream (open-loop).
	MeanInterArrival event.Time
	// BurstMean is the mean number of requests per arrival burst
	// (geometric). Values <= 1 give smooth Poisson arrivals. Real
	// block traces (the FIU traces included) are strongly bursty;
	// bursts are what expose critical-path serialization (the inline
	// hash engine) and GC interference.
	BurstMean float64
	// IntraBurst is the mean inter-arrival time inside a burst
	// (exponential, clamped below MeanInterArrival).
	IntraBurst event.Time
	// TrimFraction is the probability a request is a trim (file
	// delete) instead of a read/write.
	TrimFraction float64
	// TrimPages is the mean trimmed range length in pages.
	TrimPages float64
	// ContentSkew is the Zipf s parameter (>1) of the duplicate-content
	// popularity distribution; larger means fewer, hotter contents.
	ContentSkew float64
	// ContentPool is the number of distinct popular contents duplicate
	// writes draw from.
	ContentPool uint64
	// AddrSkew is the Zipf s parameter (>1) of write-address
	// popularity; hot logical pages are overwritten often, which is
	// what invalidates flash pages.
	AddrSkew float64
	// Seed makes the stream reproducible.
	Seed int64
	// PrecondSeed, when nonzero, seeds the preconditioning pass
	// independently of Seed, so a sweep over measured-trace seeds
	// starts every run from the same warm device state (the warm-state
	// snapshot cache keys on it). Zero derives the precondition stream
	// from Seed — every distinct Seed then preconditions differently.
	PrecondSeed int64
}

// Validate checks the spec for generability.
func (s Spec) Validate() error {
	switch {
	case s.WriteRatio < 0 || s.WriteRatio > 1:
		return fmt.Errorf("trace: WriteRatio %v out of [0,1]", s.WriteRatio)
	case s.DedupRatio < 0 || s.DedupRatio > 1:
		return fmt.Errorf("trace: DedupRatio %v out of [0,1]", s.DedupRatio)
	case s.AvgReqPages < 1:
		return fmt.Errorf("trace: AvgReqPages %v < 1", s.AvgReqPages)
	case s.LogicalPages == 0:
		return fmt.Errorf("trace: LogicalPages = 0")
	case s.Requests < 0:
		return fmt.Errorf("trace: Requests = %d", s.Requests)
	case s.MeanInterArrival < 0:
		return fmt.Errorf("trace: MeanInterArrival = %v", s.MeanInterArrival)
	case s.BurstMean < 0:
		return fmt.Errorf("trace: BurstMean = %v", s.BurstMean)
	case s.IntraBurst < 0:
		return fmt.Errorf("trace: IntraBurst = %v", s.IntraBurst)
	case s.BurstMean > 1 && s.IntraBurst >= s.MeanInterArrival && s.MeanInterArrival > 0:
		return fmt.Errorf("trace: IntraBurst %v must be below MeanInterArrival %v", s.IntraBurst, s.MeanInterArrival)
	case s.TrimFraction < 0 || s.TrimFraction >= 1:
		return fmt.Errorf("trace: TrimFraction %v out of [0,1)", s.TrimFraction)
	case s.ContentSkew <= 1 || s.AddrSkew <= 1:
		return fmt.Errorf("trace: Zipf skews must be > 1 (content %v, addr %v)", s.ContentSkew, s.AddrSkew)
	case s.ContentPool == 0:
		return fmt.Errorf("trace: ContentPool = 0")
	}
	return nil
}

// Generator produces a reproducible request stream from a Spec. It
// implements Source.
type Generator struct {
	spec Spec
	rng  *rand.Rand

	contentZipf zipf
	addrZipf    zipf
	fps         fpArena

	now       event.Time
	produced  int
	uniqueSeq uint64 // next unique (non-duplicate) content id
	burstLeft int    // requests remaining in the current burst
}

// fpArena carves per-request fingerprint slices out of large shared
// blocks, so a replay costs one allocation per fpArenaChunk fingerprints
// instead of one per write request — the single largest allocation
// source of the replay phase before it. Slices stay valid forever (a
// full block is abandoned to the garbage collector, never reused), so
// the Source contract is unchanged: callers may retain Request.FPs.
// Each slice is capacity-clipped so an append by a caller can never
// bleed into a neighbouring request's fingerprints.
type fpArena struct {
	buf []dedup.Fingerprint
}

const fpArenaChunk = 4096

func (a *fpArena) alloc(n int) []dedup.Fingerprint {
	if len(a.buf)+n > cap(a.buf) {
		size := fpArenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]dedup.Fingerprint, 0, size)
	}
	s := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

// uniqueBase offsets unique content ids above the popular pool so the
// two namespaces never collide.
const uniqueBase = uint64(1) << 40

// NewGenerator validates the spec and returns a generator positioned at
// the first request.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	g := &Generator{
		spec:        spec,
		rng:         rng,
		contentZipf: newZipf(rng, spec.ContentSkew, 1, spec.ContentPool-1),
		addrZipf:    newZipf(rng, spec.AddrSkew, 1, spec.LogicalPages-1),
	}
	return g, nil
}

// Spec returns the generating spec.
func (g *Generator) Spec() Spec { return g.spec }

// advanceClock moves virtual time to the next arrival. With BurstMean
// <= 1 arrivals are Poisson at MeanInterArrival; otherwise requests
// arrive in geometric-length bursts with IntraBurst spacing, separated
// by gaps sized so that the long-run mean inter-arrival stays at
// MeanInterArrival.
func (g *Generator) advanceClock() {
	if g.spec.MeanInterArrival <= 0 {
		return
	}
	if g.spec.BurstMean <= 1 {
		g.now += event.Time(g.rng.ExpFloat64() * float64(g.spec.MeanInterArrival))
		return
	}
	if g.burstLeft > 0 {
		g.burstLeft--
		g.now += event.Time(g.rng.ExpFloat64() * float64(g.spec.IntraBurst))
		return
	}
	// Start a new burst: gap chosen so that
	// (gap + (BurstMean-1)*IntraBurst) / BurstMean == MeanInterArrival.
	gap := float64(g.spec.MeanInterArrival)*g.spec.BurstMean -
		float64(g.spec.IntraBurst)*(g.spec.BurstMean-1)
	g.now += event.Time(g.rng.ExpFloat64() * gap)
	g.burstLeft = g.geometric(g.spec.BurstMean) - 1
}

// geometric samples a geometric length with the given mean, >= 1.
func (g *Generator) geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// P(continue) = 1 - 1/mean gives E[len] = mean.
	p := 1 - 1/mean
	n := 1
	for g.rng.Float64() < p && n < 1024 {
		n++
	}
	return n
}

// pages samples a request length with the given mean, clamped to the
// logical space so that addr and clampRange can always make it fit.
func (g *Generator) pages(mean float64) int {
	n := g.geometric(mean)
	if uint64(n) > g.spec.LogicalPages {
		n = int(g.spec.LogicalPages)
	}
	return n
}

// addr picks a starting logical page such that the request fits.
func (g *Generator) addr(pages int) uint64 {
	a := g.addrZipf.Uint64()
	limit := g.spec.LogicalPages - uint64(pages)
	if a > limit {
		a = limit
	}
	return a
}

// scramble maps Zipf rank to address so that hot pages are spread over
// the address space instead of clustered at 0 (cheap Feistel-free
// mixing that stays within [0, LogicalPages)).
func (g *Generator) scramble(a uint64) uint64 {
	n := g.spec.LogicalPages
	// Multiply by an odd constant modulo n; distributes ranks without
	// losing the popularity skew.
	return (a*2654435761 + 0x9e37) % n
}

// Next implements Source.
func (g *Generator) Next() (Request, bool) {
	if g.produced >= g.spec.Requests {
		return Request{}, false
	}
	g.produced++
	g.advanceClock()

	r := Request{At: g.now}
	switch {
	case g.rng.Float64() < g.spec.TrimFraction:
		r.Op = OpTrim
		r.Pages = g.pages(g.spec.TrimPages)
		raw := g.addr(r.Pages)
		r.LPN = g.clampRange(g.scramble(raw), r.Pages)
	case g.rng.Float64() < g.spec.WriteRatio:
		r.Op = OpWrite
		r.Pages = g.pages(g.spec.AvgReqPages)
		raw := g.addr(r.Pages)
		r.LPN = g.clampRange(g.scramble(raw), r.Pages)
		r.FPs = g.fps.alloc(r.Pages)
		for i := range r.FPs {
			if g.rng.Float64() < g.spec.DedupRatio {
				// Duplicate content drawn from the popular pool.
				r.FPs[i] = dedup.OfUint64(g.contentZipf.Uint64())
			} else {
				// Fresh unique content.
				r.FPs[i] = dedup.OfUint64(uniqueBase + g.uniqueSeq)
				g.uniqueSeq++
			}
		}
	default:
		r.Op = OpRead
		r.Pages = g.pages(g.spec.AvgReqPages)
		raw := g.addr(r.Pages)
		r.LPN = g.clampRange(g.scramble(raw), r.Pages)
	}
	return r, true
}

func (g *Generator) clampRange(lpn uint64, pages int) uint64 {
	if lpn+uint64(pages) > g.spec.LogicalPages {
		return g.spec.LogicalPages - uint64(pages)
	}
	return lpn
}
