package cagc

import (
	"testing"

	"cagc/internal/ftl"
)

func TestSchemeStrings(t *testing.T) {
	if Baseline.String() != "Baseline" || InlineDedupe.String() != "Inline-Dedupe" || CAGC.String() != "CAGC" {
		t.Fatal("scheme strings wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Fatal("unknown scheme should print")
	}
}

// Scheme names fold case, like workload names.
func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"baseline": Baseline, "Baseline": Baseline, "BASELINE": Baseline,
		"inline": InlineDedupe, "inline-dedupe": InlineDedupe, "Inline-Dedupe": InlineDedupe, "INLINE": InlineDedupe,
		"cagc": CAGC, "CAGC": CAGC, "Cagc": CAGC,
	} {
		if got, err := ParseScheme(in); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheme("zns"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// Each scheme is one composition: when content is hashed, and whether
// hashed content is placed by reference count.
func TestSchemeOptions(t *testing.T) {
	for _, tc := range []struct {
		s       Scheme
		at      ftl.HashAt
		hotCold bool
	}{
		{Baseline, ftl.HashNever, false},
		{InlineDedupe, ftl.HashAtWrite, false},
		{CAGC, ftl.HashAtMigrate, true},
	} {
		if o := tc.s.Options(); o.HashAt != tc.at || o.HotCold != tc.hotCold {
			t.Errorf("%v: HashAt %d, HotCold %v; want %d, %v", tc.s, o.HashAt, o.HotCold, tc.at, tc.hotCold)
		}
	}
}

func TestFigure8WorkedExample(t *testing.T) {
	base, cg, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: %+v", base)
	t.Logf("cagc:     %+v", cg)

	// Traditional GC migrates every one of the 12 valid pages (paper:
	// "12 valid data page write operations").
	if base.MigrationWrites != 12 {
		t.Errorf("baseline migrated %d pages, want 12", base.MigrationWrites)
	}
	if base.GCDupDropped != 0 {
		t.Errorf("baseline dropped %d duplicates, want 0", base.GCDupDropped)
	}
	// CAGC migrates only the 7 unique contents A..G (paper: "7 valid
	// data page write operations") and drops the 5 redundant copies.
	if cg.MigrationWrites != 7 {
		t.Errorf("CAGC migrated %d pages, want 7", cg.MigrationWrites)
	}
	if cg.GCDupDropped != 5 {
		t.Errorf("CAGC dropped %d duplicates, want 5", cg.GCDupDropped)
	}
	// A, B and D cross the reference-count threshold and move to the
	// cold region.
	if cg.Promotions != 3 {
		t.Errorf("CAGC promoted %d pages, want 3 (A, B, D)", cg.Promotions)
	}
	// CAGC never erases more blocks than traditional GC.
	if cg.BlocksErased > base.BlocksErased {
		t.Errorf("CAGC erased %d blocks, baseline %d", cg.BlocksErased, base.BlocksErased)
	}
	// After deleting files 2 and 4: baseline keeps 7 separate live
	// pages (A B C D, D A B); CAGC keeps the 4 shared contents A B C D.
	if base.ValidAfter != 7 {
		t.Errorf("baseline valid pages after deletes = %d, want 7", base.ValidAfter)
	}
	if cg.ValidAfter != 4 {
		t.Errorf("CAGC valid pages after deletes = %d, want 4", cg.ValidAfter)
	}
	if cg.LiveContents != 4 {
		t.Errorf("CAGC live contents = %d, want 4 (A,B,C,D)", cg.LiveContents)
	}
	if base.LiveContents != 7 {
		t.Errorf("baseline live contents = %d, want 7", base.LiveContents)
	}
	// More space is reclaimable under CAGC.
	if cg.FreePagesAfter <= base.FreePagesAfter {
		t.Errorf("CAGC free pages = %d, baseline %d — want more",
			cg.FreePagesAfter, base.FreePagesAfter)
	}
}

func TestWorkedExampleDeterministic(t *testing.T) {
	a, err := workedExample(CAGC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workedExample(CAGC)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("worked example not deterministic: %+v vs %+v", a, b)
	}
}
