// Package ftl implements the flash translation layer of the simulated
// SSD: logical-to-physical mapping through content IDs (the CAFTL-style
// two-level map), page allocation with hot/cold write frontiers,
// watermark-triggered garbage collection with pluggable victim
// selection, and the three write-path/GC-path dedup configurations the
// paper compares (Baseline, Inline-Dedupe, CAGC).
package ftl

import (
	"fmt"
	"slices"

	"cagc/internal/event"
	"cagc/internal/flash"
)

// VictimPolicy selects which block GC reclaims next. Implementations
// must be deterministic given their construction parameters (the random
// policy is seeded).
type VictimPolicy interface {
	// Name identifies the policy in reports ("greedy", "random",
	// "cost-benefit").
	Name() string
	// Select picks a victim from the eligible blocks in v (never
	// empty). now is the current simulation time, used by age-aware
	// policies.
	Select(now event.Time, v VictimView) flash.BlockID
}

// GreedyPolicy selects the block with the most invalid pages, breaking
// ties toward the least-worn block (erase count) for wear leveling and
// then toward the lowest block number. This is the paper's default
// policy; it reads only the index's top bucket.
type GreedyPolicy struct{}

// Name implements VictimPolicy.
func (GreedyPolicy) Name() string { return "greedy" }

// Select implements VictimPolicy.
func (GreedyPolicy) Select(_ event.Time, v VictimView) flash.BlockID {
	k := v.MaxInvalid()
	b, _ := v.Next(k, 0)
	best, bestErases := b, v.Block(b).Erases()
	for n := v.Count(k) - 1; n > 0; n-- {
		b, _ = v.Next(k, b+1)
		if e := v.Block(b).Erases(); e < bestErases {
			best, bestErases = b, e
		}
	}
	return best
}

// ClonablePolicy is implemented by victim policies that carry mutable
// state (a PRNG stream, decision history). Warm-state snapshots copy
// such policies so a cloned FTL sees the exact decision stream the
// original would have produced from this point on. Stateless policies
// need not implement it — copying the interface value is already safe.
type ClonablePolicy interface {
	VictimPolicy
	// ClonePolicy returns an independent policy with identical state.
	ClonePolicy() VictimPolicy
}

// RandomPolicy selects a uniformly random block among those with
// invalid pages — cheap and naturally wear-leveling, per the paper's
// first approach. The generator is a splitmix64 stream held as a single
// word of state so the policy can be copied mid-stream (ClonePolicy).
type RandomPolicy struct {
	state uint64
}

// NewRandomPolicy returns a seeded random policy. Distinct seeds yield
// distinct streams (the seed is spread by an odd multiplier, a
// bijection on 64-bit words).
func NewRandomPolicy(seed int64) *RandomPolicy {
	return &RandomPolicy{state: uint64(seed) * 0x9e3779b97f4a7c15}
}

// Name implements VictimPolicy.
func (*RandomPolicy) Name() string { return "random" }

// Select implements VictimPolicy.
func (p *RandomPolicy) Select(_ event.Time, v VictimView) flash.BlockID {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return v.Nth(int(z % uint64(v.Len())))
}

// ClonePolicy implements ClonablePolicy.
func (p *RandomPolicy) ClonePolicy() VictimPolicy {
	c := *p
	return &c
}

// CostBenefitPolicy implements the classic cost-benefit score
// (Kawaguchi et al.): maximize age * (1-u) / 2u, where u is the valid
// fraction. Blocks with u == 0 are free wins and are taken immediately.
type CostBenefitPolicy struct{}

// Name implements VictimPolicy.
func (CostBenefitPolicy) Name() string { return "cost-benefit" }

// Select implements VictimPolicy.
func (CostBenefitPolicy) Select(now event.Time, v VictimView) flash.BlockID {
	b, _ := v.Next(0, 0)
	best, bestScore := b, costBenefit(now, v.Block(b))
	for n := v.Len() - 1; n > 0; n-- {
		b, _ = v.Next(0, b+1)
		if s := costBenefit(now, v.Block(b)); s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

func costBenefit(now event.Time, blk *flash.Block) float64 {
	valid := blk.Valid()
	pages := valid + blk.Invalid()
	if pages == 0 {
		return 0
	}
	u := float64(valid) / float64(pages)
	age := float64(now - event.Time(blk.LastProgram()))
	if age < 1 {
		age = 1
	}
	if u == 0 {
		// Entirely invalid: infinite benefit; age breaks ties.
		return 1e18 + age
	}
	return age * (1 - u) / (2 * u)
}

// policies is the victim-policy vocabulary: the names PolicyByName
// accepts (the canonical one, the policy's Name, first) and the
// constructor.
var policies = []struct {
	names []string
	build func(seed int64) VictimPolicy
}{
	{[]string{"greedy"}, func(int64) VictimPolicy { return GreedyPolicy{} }},
	{[]string{"random"}, func(seed int64) VictimPolicy { return NewRandomPolicy(seed) }},
	{[]string{"cost-benefit", "costbenefit", "cb"}, func(int64) VictimPolicy { return CostBenefitPolicy{} }},
}

// PolicyByName constructs a policy from its CLI name or an alias; the
// policy's Name is the canonical name.
func PolicyByName(name string, seed int64) (VictimPolicy, error) {
	for _, p := range policies {
		if slices.Contains(p.names, name) {
			return p.build(seed), nil
		}
	}
	return nil, fmt.Errorf("ftl: unknown victim policy %q (want one of %v)", name, PolicyNames())
}

// PolicyNames lists the canonical victim-policy names.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.names[0]
	}
	return names
}
