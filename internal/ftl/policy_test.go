package ftl

import (
	"testing"
	"testing/quick"

	"cagc/internal/event"
	"cagc/internal/flash"
)

// viewPages is the block size of the hand-built views below.
const viewPages = 8

// blockSpec describes one closed block of a hand-built victim view:
// invalid of its viewPages pages are invalid, it was erased erases
// times before being filled, and its last page was programmed no
// earlier than at.
type blockSpec struct {
	invalid, erases int
	at              event.Time
}

// viewOf builds a device whose block i (alone on die i, so the specs do
// not queue behind each other) matches specs[i], and the victim index
// over it. Blocks with no invalid page stay out of the index, as in the
// FTL.
func viewOf(t testing.TB, specs []blockSpec) VictimView {
	t.Helper()
	dev, err := flash.NewDevice(flash.Config{
		Geometry: flash.Geometry{
			Channels: len(specs), DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 1, PagesPerBlock: viewPages, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := newVictimIndex(len(specs), viewPages)
	for i, s := range specs {
		b := flash.BlockID(i)
		for e := 0; e < s.erases; e++ {
			if _, err := dev.EraseBlock(0, 0, b); err != nil {
				t.Fatal(err)
			}
		}
		for pg := 0; pg < viewPages; pg++ {
			at := event.Time(0)
			if pg == viewPages-1 {
				at = s.at
			}
			if _, _, _, err := dev.ProgramNext(at, at, b, uint64(pg)); err != nil {
				t.Fatal(err)
			}
		}
		for pg := 0; pg < s.invalid; pg++ {
			if err := dev.Invalidate(dev.Geometry().PageOf(b, pg)); err != nil {
				t.Fatal(err)
			}
		}
		if s.invalid > 0 {
			ix.insert(b, s.invalid)
		}
	}
	return VictimView{&ix, dev}
}

func TestGreedyPicksMostInvalid(t *testing.T) {
	v := viewOf(t, []blockSpec{
		{invalid: 0},
		{invalid: 2, erases: 0},
		{invalid: 7, erases: 9},
		{invalid: 4, erases: 0},
	})
	if got := (GreedyPolicy{}).Select(0, v); got != 2 {
		t.Fatalf("greedy picked %d, want 2", got)
	}
}

func TestGreedyTieBreaksOnWear(t *testing.T) {
	v := viewOf(t, []blockSpec{
		{invalid: 0},
		{invalid: 5, erases: 10},
		{invalid: 5, erases: 3},
		{invalid: 5, erases: 7},
		{invalid: 5, erases: 3}, // equal wear: the lower block wins
	})
	if got := (GreedyPolicy{}).Select(0, v); got != 2 {
		t.Fatalf("greedy tie-break picked %d, want 2 (least worn, lowest)", got)
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	specs := make([]blockSpec, 10)
	for i := range specs {
		specs[i].invalid = 1
	}
	v := viewOf(t, specs)
	a, b := NewRandomPolicy(42), NewRandomPolicy(42)
	for i := 0; i < 100; i++ {
		if a.Select(0, v) != b.Select(0, v) {
			t.Fatal("random policy not reproducible")
		}
	}
}

func TestRandomPolicyCoversCandidates(t *testing.T) {
	// Eligible blocks on both sides of a bitmap word boundary, with
	// ineligible ones in between.
	specs := make([]blockSpec, 130)
	want := []flash.BlockID{3, 63, 64, 129}
	for _, b := range want {
		specs[b].invalid = 1 + int(b)%viewPages
	}
	v := viewOf(t, specs)
	p := NewRandomPolicy(1)
	seen := map[flash.BlockID]bool{}
	for i := 0; i < 200; i++ {
		seen[p.Select(0, v)] = true
	}
	for _, b := range want {
		if !seen[b] {
			t.Errorf("random policy never picked eligible block %d", b)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("random policy picked %d distinct blocks, want the %d eligible ones: %v", len(seen), len(want), seen)
	}
}

func TestCostBenefitPrefersOldSparseBlocks(t *testing.T) {
	now := event.Second
	v := viewOf(t, []blockSpec{
		{invalid: 0},
		// Young, mostly valid: expensive, low benefit.
		{invalid: 1, at: now - event.Millisecond},
		// Old, mostly invalid: cheap, high benefit.
		{invalid: 7},
		// Old but valid-heavy.
		{invalid: 2},
	})
	if got := (CostBenefitPolicy{}).Select(now, v); got != 2 {
		t.Fatalf("cost-benefit picked %d, want 2", got)
	}
}

func TestCostBenefitFullyInvalidWins(t *testing.T) {
	now := event.Second
	v := viewOf(t, []blockSpec{
		{invalid: 0},
		{invalid: 7},
		{invalid: viewPages, at: now - event.Millisecond},
	})
	if got := (CostBenefitPolicy{}).Select(now, v); got != 2 {
		t.Fatalf("cost-benefit picked %d, want the free block 2", got)
	}
}

func TestCostBenefitDegenerate(t *testing.T) {
	// An indexed block the device holds no pages of (the index lying)
	// must not panic or divide by zero.
	dev, err := flash.NewDevice(flash.Config{
		Geometry: flash.Geometry{
			Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 6, PagesPerBlock: viewPages, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := newVictimIndex(6, viewPages)
	ix.insert(5, 1)
	if got := (CostBenefitPolicy{}).Select(0, VictimView{&ix, dev}); got != 5 {
		t.Fatalf("got %d", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"greedy", "random", "cost-benefit", "costbenefit", "cb"} {
		p, err := PolicyByName(name, 1)
		if err != nil || p == nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	if _, err := PolicyByName("lru", 1); err == nil {
		t.Error("unknown policy accepted")
	}
	if (GreedyPolicy{}).Name() != "greedy" ||
		NewRandomPolicy(0).Name() != "random" ||
		(CostBenefitPolicy{}).Name() != "cost-benefit" {
		t.Error("policy names wrong")
	}
}

// Property: every policy returns a block that was actually a candidate.
func TestPoliciesReturnCandidatesProperty(t *testing.T) {
	policies := []VictimPolicy{GreedyPolicy{}, NewRandomPolicy(3), CostBenefitPolicy{}}
	prop := func(raw []uint16, nowRaw uint32) bool {
		specs := make([]blockSpec, len(raw))
		members := map[flash.BlockID]bool{}
		for i, r := range raw {
			specs[i] = blockSpec{
				invalid: int(r % (viewPages + 1)),
				erases:  int(r>>8) % 16,
				at:      event.Time(r) * event.Microsecond,
			}
			if specs[i].invalid > 0 {
				members[flash.BlockID(i)] = true
			}
		}
		if len(members) == 0 {
			return true
		}
		v := viewOf(t, specs)
		for _, p := range policies {
			if !members[p.Select(event.Time(nowRaw)*event.Microsecond, v)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under an arbitrary mixed workload, every scheme maintains
// full metadata consistency and data integrity.
func TestSchemesInvariantProperty(t *testing.T) {
	schemes := []Options{BaselineOptions(), InlineDedupeOptions(), CAGCOptions()}
	prop := func(ops []uint32) bool {
		for _, o := range schemes {
			f := newFTLQuick(o)
			if f == nil {
				return false
			}
			now := event.Time(0)
			logical := int64(f.LogicalPages())
			for _, op := range ops {
				lpn := uint64(int64(op>>8) % logical)
				var err error
				var end event.Time
				switch op % 8 {
				case 0, 1, 2, 3, 4: // write, small content pool
					end, err = f.Write(now, lpn, fpOf(uint64(op)%24))
				case 5: // read
					end, err = f.Read(now, lpn)
				default: // trim
					end, err = f.Trim(now, lpn)
				}
				if err != nil {
					return false
				}
				now = end
			}
			if f.CheckInvariants() != nil {
				return false
			}
			for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
				if _, err := f.Read(now, lpn); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// newFTLQuick builds a small FTL without a *testing.T (for quick.Check).
func newFTLQuick(opts Options) *FTL {
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels:      2,
			DiesPerChan:   1,
			PlanesPerDie:  1,
			BlocksPerPlan: 8,
			PagesPerBlock: 8,
			PageSize:      4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.11,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		return nil
	}
	f, err := New(dev, uint64(float64(cfg.UserPages())*0.78), opts)
	if err != nil {
		return nil
	}
	return f
}
