package ftl

import (
	"errors"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
)

// First slice of the independent oracle: the FTL against the simplest
// model of what it stores, a map from logical page to content. Every
// scheme and victim policy must agree with it under any operation
// stream, however GC rearranges the flash underneath.

// modelOpBytes is the encoded size of one operation: kind, two bytes of
// logical page, one byte of content / idle-window length.
const modelOpBytes = 4

// modelCheckEvery is how many operations pass between full comparisons.
const modelCheckEvery = 64

// Option legs, bit flags in data[1]/3 (data[1]%3 is the policy, so a
// policy byte below 3 runs no leg).
const (
	// legCapacity caps the index at 4 fingerprints: with 16 contents
	// they are evicted constantly, so shared CIDs that are not indexed
	// (GC re-hashes and merges or republishes them) are common.
	legCapacity = 1 << iota
	legMappingCache
	legWearLevel
	// legEraseLimit gives every block modelEraseLimit erases: blocks are
	// retired inside GC's victim pass until the device cannot host the
	// logical space, and the stream then ends at the first ErrDeviceFull.
	legEraseLimit
	numLegs = iota
)

// modelEraseLimit is the erase-limit leg's per-block erase budget.
const modelEraseLimit = 3

// legName names the corpus files of the legs.
var legName = [numLegs]string{"capacity", "mapcache", "wearlevel", "eraselimit"}

// runAgainstModel decodes data into a composition, a policy, option legs and
// an operation stream, applies the stream to an FTL on a 64-page device
// and to the model, and compares them every modelCheckEvery operations
// and at the end. Victim selection goes through checkedPolicy, so each
// selection is also compared with the full-scan reference. It returns
// the FTL. Under the erase-limit leg an operation that fails with
// ErrDeviceFull ends the stream unapplied: the device wore out cleanly,
// and the final comparison still runs.
func runAgainstModel(t *testing.T, data []byte) *FTL {
	if len(data) < 2 {
		return nil
	}
	// data[0]%8 is the composition: every HashAt, each with and without
	// hot/cold placement. Bit 2 flips placement away from the scheme's
	// own choice, so 0, 1 and 2 stay Baseline, Inline-Dedupe and CAGC.
	opts := Defaults()
	opts.HashAt = HashAt(data[0] % 4)
	opts.HotCold = opts.HashAt.atMigrate() != (data[0]&4 != 0)
	policy := checkedPolicies(t)[data[1]%3]
	opts.Policy = policy
	legs := data[1] / 3
	if legs&legCapacity != 0 {
		opts.IndexCapacity = 4
	}
	if legs&legMappingCache != 0 {
		opts.MappingCache = 1 // one translation page of 512 entries
	}
	if legs&legWearLevel != 0 {
		opts.WearLevelThreshold = 2
	}
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 8, PagesPerBlock: 4, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.1,
	}
	if legs&legEraseLimit != 0 {
		cfg.EraseLimit = modelEraseLimit
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const logical = 40
	f, err := New(dev, logical, opts)
	if err != nil {
		t.Fatal(err)
	}
	policy.f = f

	model := map[uint64]dedup.Fingerprint{}
	now := event.Time(0)
	ops := data[2:]
	for i := 0; i+modelOpBytes <= len(ops); i += modelOpBytes {
		kind, arg := ops[i]%16, ops[i+3]
		lpn := (uint64(ops[i+1])<<8 | uint64(ops[i+2])) % logical
		end, err := now, error(nil)
		apply := func() {} // the op's effect on the model, once it succeeded
		switch {
		case kind < 9: // write or overwrite, 16 contents so duplicates are common
			fp := fpOf(uint64(arg % 16))
			end, err = f.Write(now, lpn, fp)
			apply = func() { model[lpn] = fp }
		case kind < 11:
			end, err = f.Trim(now, lpn)
			apply = func() { delete(model, lpn) }
		case kind < 14:
			end, err = f.Read(now, lpn)
		case kind < 15:
			err = f.IdleGC(now, now+event.Time(arg)*100*event.Microsecond, 0.5)
		default:
			err = f.ForceGC(now)
		}
		if legs&legEraseLimit != 0 && errors.Is(err, ErrDeviceFull) {
			break
		}
		if err != nil {
			t.Fatalf("op %d (kind %d, lpn %d): %v", i/modelOpBytes, kind, lpn, err)
		}
		apply()
		now = end
		if (i/modelOpBytes+1)%modelCheckEvery == 0 {
			compareWithModel(t, f, model, now)
		}
	}
	compareWithModel(t, f, model, now)
	return f
}

// compareWithModel asserts that f stores exactly the model's contents.
func compareWithModel(t *testing.T, f *FTL, model map[uint64]dedup.Fingerprint, now event.Time) {
	t.Helper()
	distinct := map[dedup.Fingerprint]bool{}
	bound := map[dedup.CID]int{} // model LPNs bound to each CID
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		want, inModel := model[lpn]
		ppn, mapped, err := f.locate(lpn)
		if err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
		if mapped != inModel {
			t.Fatalf("lpn %d: mapped=%v (%v), the model holds it: %v", lpn, mapped, f.mapping[lpn], inModel)
		}
		if !mapped {
			continue
		}
		distinct[want] = true
		if s := f.mapping[lpn]; !s.private() {
			bound[s.cid()]++
		}
		if st, _ := f.dev.PageStateOf(ppn); st != flash.PageValid {
			t.Fatalf("lpn %d lives on ppn %d in state %v", lpn, ppn, st)
		}
		if tag, _ := f.dev.Tag(ppn); tag != uint64(want) {
			t.Fatalf("lpn %d: flash holds %#x, the model %#x", lpn, tag, uint64(want))
		}
		// And through the front door, which verifies the tag itself.
		if _, err := f.Read(now, lpn); err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
	}
	// Page accounting, counted page by page: every page is in exactly
	// one state, and the valid ones are the stored contents — one per
	// mapped page without dedup, one per distinct content when every
	// write is deduplicated, in between when GC dedups lazily.
	var n [3]int
	total := f.geo.TotalPages()
	for p := 0; p < total; p++ {
		st, err := f.dev.PageStateOf(flash.PPN(p))
		if err != nil || int(st) >= len(n) {
			t.Fatalf("ppn %d: state %v, %v", p, st, err)
		}
		n[st]++
	}
	free, valid, invalid := f.dev.CountStates()
	if n[flash.PageFree] != free || n[flash.PageValid] != valid || n[flash.PageInvalid] != invalid ||
		free+valid+invalid != total {
		t.Fatalf("page states count free/valid/invalid %v, block counters say %d/%d/%d of %d",
			n, free, valid, invalid, total)
	}
	// Program/erase conservation from the fresh device: every program
	// the FTL accounts for reached the flash, and every page the flash
	// programmed is still held, valid or invalid, unless the erase of a
	// full block wiped it.
	ds, programs := f.dev.Stats(), f.Stats().TotalPrograms()
	if ds.PagePrograms != programs {
		t.Fatalf("device programmed %d pages, FTL accounts %d", ds.PagePrograms, programs)
	}
	if held := int64(ds.PagePrograms) - int64(ds.BlockErases)*int64(f.geo.PagesPerBlock); held != int64(valid+invalid) {
		t.Fatalf("%d programs − %d erases × %d pages = %d, but %d pages are programmed",
			ds.PagePrograms, ds.BlockErases, f.geo.PagesPerBlock, held, valid+invalid)
	}
	lo, hi := len(distinct), len(model)
	switch {
	case f.opts.HashAt == HashAtWrite && f.opts.IndexCapacity == 0:
		hi = lo
	case f.opts.HashAt == HashNever:
		lo = hi
	}
	if valid < lo || valid > hi {
		t.Fatalf("%d valid pages for %d mapped pages of %d distinct contents, want %d..%d",
			valid, len(model), len(distinct), lo, hi)
	}
	// Reference counting against the model: each CID's count is the
	// number of LPNs bound to it, every live CID has some, and those plus
	// the private pages are every mapped LPN; one stored content per
	// valid page.
	refs := 0
	for c, lpns := range bound {
		if ref, err := f.idx.Ref(c); err != nil || ref != lpns {
			t.Fatalf("CID %d: refcount %d (%v), %d LPNs bound to it", c, ref, err, lpns)
		}
		refs += lpns
	}
	if len(bound) != f.idx.Live() {
		t.Fatalf("%d CIDs bound, %d live", len(bound), f.idx.Live())
	}
	if f.private+refs != len(model) {
		t.Fatalf("%d private pages + %d references != %d mapped LPNs", f.private, refs, len(model))
	}
	if f.LiveContents() != valid {
		t.Fatalf("%d live contents, %d valid pages", f.LiveContents(), valid)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// modelStream is a deterministic operation stream long enough to fill
// the device several times over, for the given composition and policy
// bytes.
func modelStream(scheme, policy byte, ops int) []byte {
	data := []byte{scheme, policy}
	x := uint32(scheme)*31 + uint32(policy)*7 + 1
	for i := 0; i < ops*modelOpBytes; i++ {
		x = x*1664525 + 1013904223
		data = append(data, byte(x>>24))
	}
	return data
}

// TestFTLAgainstModel runs the model comparison over every composition
// and policy, and every composition under each option leg, on streams
// that are known to reach GC, so plain `go test` covers what the fuzz
// target explores.
func TestFTLAgainstModel(t *testing.T) {
	for scheme := byte(0); scheme < 8; scheme++ {
		for policy := byte(0); policy < 3; policy++ {
			st := runAgainstModel(t, modelStream(scheme, policy, 2000)).Stats()
			// Hashing at write stores 16 pages at most here: never short
			// enough of free blocks for idle GC to have work.
			if st.BlocksErased == 0 || st.PagesMigrated == 0 || (st.IdleGCCollects == 0 && scheme%4 != 1) {
				t.Errorf("scheme %d policy %d: stream never reached GC: %+v", scheme, policy, st)
			}
		}
		for leg := 0; leg < numLegs; leg++ {
			f := runAgainstModel(t, modelStream(scheme, 3<<leg, 2000))
			// Each leg must reach what it exists for (a composition that
			// never hashes has no index to bound).
			reached := true
			switch 1 << leg {
			case legCapacity:
				reached = scheme%4 == 0 || f.Index().Stats().Evictions > 0
			case legMappingCache:
				reached = f.MapCacheStats().Hits > 0
			case legWearLevel:
				reached = f.Stats().WLSwaps > 0
			case legEraseLimit:
				reached = f.Stats().BadBlocks > 0
			}
			if !reached {
				t.Errorf("scheme %d, %s leg: never exercised: %+v", scheme, legName[leg], f.Stats())
			}
		}
	}
}

// FuzzFTLAgainstModel is the open-ended form; the seed corpus under
// testdata/fuzz/FuzzFTLAgainstModel holds one GC-reaching stream per
// scheme and policy, and per scheme and option leg (greedy); the fuzzer
// reaches the other five compositions through the first byte.
func FuzzFTLAgainstModel(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 5, 0, 0, 2, 5, 9, 0, 1, 0, 15, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runAgainstModel(t, data) })
}
