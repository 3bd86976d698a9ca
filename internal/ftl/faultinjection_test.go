package ftl

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/flash"
)

// Fault injection: the integrity checkers (CheckInvariants and the
// read-path tag comparison) are only trustworthy if they actually fire
// on corrupted state. Each test corrupts one structure and asserts the
// corresponding detector trips.

func corruptedFTL(t *testing.T) *FTL {
	t.Helper()
	f := newFTL(t, CAGCOptions())
	churn(t, f, int(f.LogicalPages())*2, 64, 99)
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("pre-corruption state already broken: %v", err)
	}
	return f
}

// mappedLPNs returns the LPNs mapped to private pages (private) or to
// CIDs (!private), in order.
func mappedLPNs(t *testing.T, f *FTL, private bool) []uint64 {
	t.Helper()
	var lpns []uint64
	for lpn, s := range f.mapping {
		if s != nilSlot && s.private() == private {
			lpns = append(lpns, uint64(lpn))
		}
	}
	if len(lpns) < 2 {
		t.Fatalf("only %d LPNs mapped with private=%v", len(lpns), private)
	}
	return lpns
}

// pageOf resolves a mapped lpn the way Read does.
func pageOf(t *testing.T, f *FTL, lpn uint64) flash.PPN {
	t.Helper()
	ppn, mapped, err := f.locate(lpn)
	if err != nil || !mapped {
		t.Fatalf("lpn %d: mapped=%v, %v", lpn, mapped, err)
	}
	return ppn
}

func TestDetectDanglingMapping(t *testing.T) {
	f := corruptedFTL(t)
	lpn := mappedLPNs(t, f, false)[0]
	f.mapping[lpn] = cidSlot(1 << 30) // points nowhere
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("dangling mapping not detected")
	}
	if _, err := f.Read(1<<40, lpn); err == nil {
		t.Fatal("read through dangling mapping succeeded")
	}
}

// A page number beyond the device, in a private slot or behind a CID,
// is reported as an error by the flat page walk, never a panic.
func TestDetectOutOfRangePage(t *testing.T) {
	for _, private := range []bool{false, true} {
		f := corruptedFTL(t)
		total := uint64(f.dev.Geometry().TotalPages())
		lpn := mappedLPNs(t, f, private)[0]
		if private {
			f.mapping[lpn] = privateSlot(total)
		} else if err := f.idx.SetPPN(f.mapping[lpn].cid(), flash.PPN(total)); err != nil {
			t.Fatal(err)
		}
		err := f.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("lpn %d ", lpn)) {
			t.Fatalf("private=%v: CheckInvariants = %v, want an error naming lpn %d", private, err, lpn)
		}
	}
}

func TestDetectOwnerMismatch(t *testing.T) {
	for _, private := range []bool{false, true} {
		f := corruptedFTL(t)
		ppn := pageOf(t, f, mappedLPNs(t, f, private)[0])
		f.owners[ppn] = nilSlot // orphan the valid page
		if err := f.CheckInvariants(); err == nil {
			t.Fatalf("private=%v: orphaned valid page not detected", private)
		}
	}
}

func TestDetectContentMismatch(t *testing.T) {
	f := corruptedFTL(t)
	lpn := mappedLPNs(t, f, false)[0]
	c := f.mapping[lpn]
	// Repoint the content at some other valid page (wrong data).
	ppn := pageOf(t, f, lpn)
	otherPPN := ppn
	for p := range f.owners {
		if f.owners[p] != nilSlot && f.owners[p] != c {
			otherPPN = flash.PPN(p)
			break
		}
	}
	if otherPPN == ppn {
		t.Skip("only one content on device")
	}
	if err := f.idx.SetPPN(c.cid(), otherPPN); err != nil {
		t.Fatal(err)
	}
	// The read path compares the stored tag with the fingerprint.
	if _, err := f.Read(1<<40, lpn); !errors.Is(err, ErrCorruption) {
		t.Fatalf("content mismatch read err = %v, want ErrCorruption", err)
	}
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("repointed content not detected")
	}
}

// A private page has no fingerprint to compare, so the owner back-
// pointer is what catches a mapping pointed at another LPN's page.
func TestDetectMisdirectedPrivatePage(t *testing.T) {
	f := corruptedFTL(t)
	lpns := mappedLPNs(t, f, true)
	lpn, other := lpns[1], lpns[0]
	f.mapping[lpn] = f.mapping[other]
	if _, err := f.Read(1<<40, lpn); !errors.Is(err, ErrCorruption) {
		t.Fatalf("read of a misdirected private page: err = %v, want ErrCorruption", err)
	}
	err := f.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("lpn %d ", lpn)) {
		t.Fatalf("CheckInvariants = %v, want an error naming lpn %d", err, lpn)
	}
}

// A valid private page no LPN maps to is lost data even when the
// private-page count agrees; the page scan must catch it.
func TestDetectOrphanedPrivatePage(t *testing.T) {
	f := corruptedFTL(t)
	lpn := mappedLPNs(t, f, true)[0]
	f.mapping[lpn] = nilSlot
	f.private--
	err := f.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("private owner lpn %d ", lpn)) {
		t.Fatalf("CheckInvariants = %v, want the orphaned page of lpn %d reported", err, lpn)
	}
}

// The page-count bound of ftl.New, at and either side of the limit. It
// is a function of the geometry alone, so no device is allocated.
func TestPageCountFitsSlot(t *testing.T) {
	geo := func(blocks, pagesPerBlock int) flash.Geometry {
		return flash.Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: blocks, PagesPerBlock: pagesPerBlock, PageSize: 4096}
	}
	for _, tc := range []struct {
		g  flash.Geometry
		ok bool
	}{
		{geo(64, 4), true},
		{geo(1<<30-1, 2), true}, // 2^31 - 2 pages: the largest accepted
		{geo(1<<31-1, 1), false},
		{geo(1<<30, 2), false}, // 2^31
		{geo(1<<20, 1<<12), false},
	} {
		n := tc.g.TotalPages()
		if err := checkPages(tc.g); (err == nil) != tc.ok {
			t.Errorf("%d pages: checkPages = %v, want ok=%v", n, err, tc.ok)
		}
		// The largest page number tagged must not read as nilSlot, and
		// must keep its tag.
		if tc.ok {
			if s := privateSlot(uint64(n - 1)); s == nilSlot || !s.private() || s.page() != uint64(n-1) {
				t.Errorf("%d pages: last page tags to %v", n, s)
			}
		}
	}
	if cidSlot(dedup.CID(maxPages - 1)).private() {
		t.Error("a CID below the page bound reads as private")
	}
}

func TestDetectFreeCountSkew(t *testing.T) {
	f := corruptedFTL(t)
	f.freeCount++
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("free-count skew not detected")
	}
}

func TestDetectStolenBlockState(t *testing.T) {
	f := corruptedFTL(t)
	// Claim a closed block is free without erasing it.
	for b := range f.blocks {
		if f.blocks[b].state == blkClosed {
			f.blocks[b].state = blkFree
			break
		}
	}
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("fake-free block not detected")
	}
}
