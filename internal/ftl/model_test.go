package ftl

import (
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

// runAgainstModel decodes data into a scheme, a policy and an operation
// stream, applies the stream to an FTL on a 64-page device and to the
// model, and compares them every modelCheckEvery operations and at the
// end. Victim selection goes through checkedPolicy, so each selection is
// also compared with the full-scan reference. It returns the FTL's
// final counters.
func runAgainstModel(t *testing.T, data []byte) Stats {
	if len(data) < 2 {
		return Stats{}
	}
	opts := []Options{BaselineOptions(), InlineDedupeOptions(), CAGCOptions()}[data[0]%3]
	policy := checkedPolicies(t)[data[1]%3]
	opts.Policy = policy
	dev, err := flash.NewDevice(flash.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 8, PagesPerBlock: 4, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.1,
	})
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
		switch {
		case kind < 9: // write or overwrite, 16 contents so duplicates are common
			fp := fpOf(uint64(arg % 16))
			end, err = f.Write(now, lpn, fp)
			model[lpn] = fp
		case kind < 11:
			end, err = f.Trim(now, lpn)
			delete(model, lpn)
		case kind < 14:
			end, err = f.Read(now, lpn)
		case kind < 15:
			err = f.IdleGC(now, now+event.Time(arg)*100*event.Microsecond, 0.5)
		default:
			err = f.ForceGC(now)
		}
		if err != nil {
			t.Fatalf("op %d (kind %d, lpn %d): %v", i/modelOpBytes, kind, lpn, err)
		}
		now = end
		if (i/modelOpBytes+1)%modelCheckEvery == 0 {
			compareWithModel(t, f, model, now)
		}
	}
	compareWithModel(t, f, model, now)
	return f.Stats()
}

// compareWithModel asserts that f stores exactly the model's contents.
func compareWithModel(t *testing.T, f *FTL, model map[uint64]dedup.Fingerprint, now event.Time) {
	t.Helper()
	distinct := map[dedup.Fingerprint]bool{}
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		want, mapped := model[lpn]
		c := f.mapping[lpn]
		if !mapped {
			if c != dedup.NilCID {
				t.Fatalf("lpn %d is mapped to CID %d, the model has it unmapped", lpn, c)
			}
			continue
		}
		distinct[want] = true
		if c == dedup.NilCID {
			t.Fatalf("lpn %d is unmapped, the model holds %#x", lpn, uint64(want))
		}
		ppn, err := f.idx.PPN(c)
		if err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
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
	lo, hi := len(distinct), len(model)
	switch {
	case f.opts.InlineDedup:
		hi = lo
	case !f.opts.GCDedup:
		lo = hi
	}
	if valid < lo || valid > hi {
		t.Fatalf("%d valid pages for %d mapped pages of %d distinct contents, want %d..%d",
			valid, len(model), len(distinct), lo, hi)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// modelStream is a deterministic operation stream long enough to fill
// the device several times over, for the given scheme and policy bytes.
func modelStream(scheme, policy byte, ops int) []byte {
	data := []byte{scheme, policy}
	x := uint32(scheme)*31 + uint32(policy)*7 + 1
	for i := 0; i < ops*modelOpBytes; i++ {
		x = x*1664525 + 1013904223
		data = append(data, byte(x>>24))
	}
	return data
}

// TestFTLAgainstModel runs the model comparison over every scheme and
// policy on streams that are known to reach GC, so plain `go test`
// covers what the fuzz target explores.
func TestFTLAgainstModel(t *testing.T) {
	for scheme := byte(0); scheme < 3; scheme++ {
		for policy := byte(0); policy < 3; policy++ {
			st := runAgainstModel(t, modelStream(scheme, policy, 2000))
			// Inline-Dedupe stores 16 pages at most here: never short
			// enough of free blocks for idle GC to have work.
			if st.BlocksErased == 0 || st.PagesMigrated == 0 || (st.IdleGCCollects == 0 && scheme != 1) {
				t.Errorf("scheme %d policy %d: stream never reached GC: %+v", scheme, policy, st)
			}
		}
	}
}

// FuzzFTLAgainstModel is the open-ended form; the seed corpus under
// testdata/fuzz/FuzzFTLAgainstModel holds one GC-reaching stream per
// scheme and policy.
func FuzzFTLAgainstModel(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 5, 0, 0, 2, 5, 9, 0, 1, 0, 15, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runAgainstModel(t, data) })
}
