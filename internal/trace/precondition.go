package trace

import "cagc/internal/dedup"

// preconditionBase offsets precondition-unique content ids above both
// the popular pool and the generator's unique namespace, so
// preconditioning neither collides with nor inflates workload dedup.
const preconditionBase = uint64(1) << 41

// NewPreconditioner returns a Source that writes every logical page of
// spec's address space exactly once, in a deterministic shuffled block
// order, with the same duplicate/unique content mixture as the
// workload. Replaying it before the measured trace brings the simulated
// SSD to steady state (fully mapped, GC active), the standard SSD
// preconditioning methodology. All requests carry arrival time 0; the
// replayer is expected to run them closed-loop and not record their
// latencies.
func NewPreconditioner(spec Spec) (*Preconditioner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if spec.PrecondSeed != 0 {
		seed = spec.PrecondSeed
	}
	src, rng := newFibSource(seed ^ 0x5eed)
	const chunk = 8
	nChunks := int((spec.LogicalPages + chunk - 1) / chunk)
	order := rng.Perm(nChunks)
	return &Preconditioner{
		spec:  spec,
		src:   src,
		dedup: cutoffOf(spec.DedupRatio),
		zipf:  newZipf(src, spec.ContentSkew, 1, spec.ContentPool-1),
		order: order,
		chunk: chunk,
	}, nil
}

// Preconditioner implements Source; see NewPreconditioner.
type Preconditioner struct {
	spec   Spec
	src    *fibSource
	dedup  cutoff
	zipf   zipf
	fps    fpScratch
	order  []int
	chunk  uint64
	pos    int
	unique uint64
}

// Next implements Source.
func (p *Preconditioner) Next() (Request, bool) {
	if p.pos >= len(p.order) {
		return Request{}, false
	}
	start := uint64(p.order[p.pos]) * p.chunk
	p.pos++
	n := p.chunk
	if start+n > p.spec.LogicalPages {
		n = p.spec.LogicalPages - start
	}
	r := Request{
		Op:    OpWrite,
		LPN:   start,
		Pages: int(n),
		FPs:   p.fps.take(int(n)),
	}
	for i := range r.FPs {
		if p.src.below(p.dedup) {
			r.FPs[i] = dedup.OfUint64(p.zipf.Uint64())
		} else {
			r.FPs[i] = dedup.OfUint64(preconditionBase + p.unique)
			p.unique++
		}
	}
	return r, true
}
