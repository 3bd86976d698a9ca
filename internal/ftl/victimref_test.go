package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cagc/internal/event"
	"cagc/internal/flash"
)

// The O(device) victim selection the bucketed index replaced, kept as
// the reference the index is tested against: scan every block for
// "closed with an invalid page" in ascending order, materialise a
// candidate table, and run each policy's original loop over it.

type candidate struct {
	Block       flash.BlockID
	Valid       int
	Invalid     int
	Erases      int
	LastProgram event.Time
}

func scanCandidates(f *FTL) []candidate {
	var cands []candidate
	for b := range f.blocks {
		blk, _ := f.dev.Block(flash.BlockID(b))
		if f.blocks[b].state != blkClosed || blk.Invalid() == 0 {
			continue
		}
		cands = append(cands, candidate{
			Block:       flash.BlockID(b),
			Valid:       blk.Valid(),
			Invalid:     blk.Invalid(),
			Erases:      blk.Erases(),
			LastProgram: event.Time(blk.LastProgram()),
		})
	}
	return cands
}

func refGreedy(_ event.Time, cands []candidate) flash.BlockID {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Invalid > best.Invalid ||
			(c.Invalid == best.Invalid && c.Erases < best.Erases) {
			best = c
		}
	}
	return best.Block
}

// refRandom is the splitmix64 draw of RandomPolicy over the table.
func refRandom(seed int64) func(event.Time, []candidate) flash.BlockID {
	state := uint64(seed) * 0x9e3779b97f4a7c15
	return func(_ event.Time, cands []candidate) flash.BlockID {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return cands[z%uint64(len(cands))].Block
	}
}

func refCostBenefit(now event.Time, cands []candidate) flash.BlockID {
	score := func(c candidate) float64 {
		pages := c.Valid + c.Invalid
		if pages == 0 {
			return 0
		}
		u := float64(c.Valid) / float64(pages)
		age := float64(now - c.LastProgram)
		if age < 1 {
			age = 1
		}
		if u == 0 {
			return 1e18 + age
		}
		return age * (1 - u) / (2 * u)
	}
	best, bestScore := cands[0], score(cands[0])
	for _, c := range cands[1:] {
		if s := score(c); s > bestScore {
			best, bestScore = c, s
		}
	}
	return best.Block
}

// checkedPolicy wraps a real policy and, at every selection the FTL
// makes, checks the index against a fresh scan and the policy's choice
// against the reference loop's.
type checkedPolicy struct {
	t          *testing.T
	f          *FTL
	inner      VictimPolicy
	ref        func(event.Time, []candidate) flash.BlockID
	selections int
}

func (p *checkedPolicy) Name() string { return p.inner.Name() }

func (p *checkedPolicy) Select(now event.Time, v VictimView) flash.BlockID {
	p.selections++
	if err := p.f.checkEligibleSet(); err != nil {
		p.t.Fatalf("selection %d: %v", p.selections, err)
	}
	cands := scanCandidates(p.f)
	if len(cands) != v.Len() {
		p.t.Fatalf("selection %d: index offers %d blocks, scan finds %d", p.selections, v.Len(), len(cands))
	}
	maxInvalid := 0
	for _, c := range cands {
		maxInvalid = max(maxInvalid, c.Invalid)
	}
	if v.MaxInvalid() != maxInvalid {
		p.t.Fatalf("selection %d: MaxInvalid %d, scan says %d", p.selections, v.MaxInvalid(), maxInvalid)
	}
	got, want := p.inner.Select(now, v), p.ref(now, cands)
	if got != want {
		p.t.Fatalf("selection %d: %s picked block %d from the index, %d from the scan",
			p.selections, p.inner.Name(), got, want)
	}
	return got
}

// checkedPolicies pairs each policy with its reference loop.
func checkedPolicies(t *testing.T) []*checkedPolicy {
	return []*checkedPolicy{
		{t: t, inner: GreedyPolicy{}, ref: refGreedy},
		{t: t, inner: NewRandomPolicy(7), ref: refRandom(7)},
		{t: t, inner: CostBenefitPolicy{}, ref: refCostBenefit},
	}
}

// The index must offer exactly the blocks a full scan finds, and every
// policy must pick from it the block its original loop picked from the
// scan's table — at every selection of random write / overwrite / trim
// / IdleGC / ForceGC streams, under every scheme and policy, with wear
// levelling, and through bad-block retirement up to device death.
func TestVictimIndexMatchesScan(t *testing.T) {
	schemes := []Options{BaselineOptions(), InlineDedupeOptions(), CAGCOptions()}
	type leg struct {
		name       string
		eraseLimit int
		tune       func(*Options)
		reached    func(Stats) bool // the leg exercised what it is named for
	}
	legs := []leg{
		{name: "plain", reached: func(st Stats) bool { return st.IdleGCCollects > 0 && st.PagesMigrated > 0 }},
		{name: "wear-level", tune: func(o *Options) { o.WearLevelThreshold = 3 },
			reached: func(st Stats) bool { return st.WLSwaps > 0 }},
		{name: "erase-limit", eraseLimit: 12,
			reached: func(st Stats) bool { return st.BadBlocks > 0 }},
	}
	for _, l := range legs {
		for _, scheme := range schemes {
			for _, cp := range checkedPolicies(t) {
				name := fmt.Sprintf("%s/%s/%s", l.name, scheme.SchemeName(), cp.inner.Name())
				t.Run(name, func(t *testing.T) {
					cp.t = t
					o := scheme
					o.Policy = cp
					if l.tune != nil {
						l.tune(&o)
					}
					var f *FTL
					if l.eraseLimit > 0 {
						f = newWornFTL(t, l.eraseLimit, o)
					} else {
						f = newFTL(t, o)
					}
					cp.f = f
					driveRandomOps(t, f, int(f.LogicalPages())*20, 41)
					if cp.selections == 0 || !l.reached(f.Stats()) {
						t.Fatalf("the stream missed its regime: %d selections, %+v", cp.selections, f.Stats())
					}
					if err := f.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// driveRandomOps feeds f a seeded mix of writes (a content pool small
// enough to dedup), trims, reads and idle / forced GC, stopping early if
// the device wears out.
func driveRandomOps(t *testing.T, f *FTL, ops int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := event.Time(0)
	logical := int64(f.LogicalPages())
	for i := 0; i < ops; i++ {
		lpn := uint64(rng.Int63n(logical))
		end, err := now, error(nil)
		switch r := rng.Intn(100); {
		case r < 70:
			end, err = f.Write(now, lpn, fpOf(rng.Uint64()%512))
		case r < 85:
			end, err = f.Trim(now, lpn)
		case r < 97:
			end, err = f.Read(now, lpn)
		case r < 99:
			err = f.IdleGC(now, now+5*event.Millisecond, 0.5)
		default:
			err = f.ForceGC(now)
		}
		if errors.Is(err, ErrDeviceFull) {
			return // worn out: every block the erase budget allowed is gone
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		now = end
	}
}
