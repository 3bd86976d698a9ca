package obs

import (
	"testing"

	"cagc/internal/event"
)

func TestRecorderSeqAndParenting(t *testing.T) {
	r := NewRecorder()
	id := r.Begin(TrackGC, KGCCollect, 100, 7)
	r.Span(DieTrack(0), KDieRead, 100, 120, 11)
	r.Instant(TrackGC, KGCSelect, 105, 3)
	// Detached kinds record without a parent even inside a scope.
	r.Span(TrackBuffer, KBufFlush, 100, 200, 9)
	r.End(id, 300)
	r.Counter(TrackIndex, KIndexLive, 300, 42)

	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	collect := evs[0]
	if collect.Kind != KGCCollect || collect.Start != 100 || collect.End != 300 {
		t.Errorf("collect span = %+v, want [100,300]", collect)
	}
	if collect.Parent != 0 {
		t.Errorf("detached collect has parent %d", collect.Parent)
	}
	if evs[1].Parent != collect.Seq {
		t.Errorf("die read parent = %d, want %d", evs[1].Parent, collect.Seq)
	}
	if evs[2].Parent != collect.Seq {
		t.Errorf("select parent = %d, want %d", evs[2].Parent, collect.Seq)
	}
	if evs[3].Parent != 0 {
		t.Errorf("detached flush has parent %d", evs[3].Parent)
	}
	if evs[4].Parent != 0 {
		t.Errorf("counter after End has parent %d", evs[4].Parent)
	}
}

func TestRecorderNestedScopes(t *testing.T) {
	r := NewRecorder()
	outer := r.Begin(TrackRequests, KReqWrite, 0, 1)
	inner := r.Begin(TrackGC, KGCCollect, 10, 2) // detached but opens a scope
	r.Instant(TrackGC, KGCDedupHit, 15, 0)
	r.End(inner, 50)
	r.Span(DieTrack(1), KDieProgram, 20, 60, 0)
	r.End(outer, 80)

	evs := r.Events()
	if evs[2].Parent != uint64(inner) {
		t.Errorf("instant inside inner scope parents to %d, want %d", evs[2].Parent, inner)
	}
	if evs[3].Parent != uint64(outer) {
		t.Errorf("span after inner End parents to %d, want %d", evs[3].Parent, outer)
	}
}

func TestRecorderClampsBackwardsEnds(t *testing.T) {
	r := NewRecorder()
	r.Span(TrackRequests, KReqRead, 100, 50, 0)
	id := r.Begin(TrackRequests, KReqWrite, 200, 0)
	r.End(id, 10)
	evs := r.Events()
	if evs[0].End != 100 {
		t.Errorf("span end = %d, want clamped to 100", evs[0].End)
	}
	if evs[1].End != 200 {
		t.Errorf("scope end = %d, want clamped to 200", evs[1].End)
	}
}

func TestFlightRecorderWindow(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Instant(TrackRequests, KReqRead, event.Time(i), uint64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestFlightRecorderEndAfterEviction(t *testing.T) {
	r := NewFlightRecorder(2)
	id := r.Begin(TrackRequests, KReqWrite, 0, 0)
	r.Instant(TrackRequests, KReqRead, 1, 0)
	r.Instant(TrackRequests, KReqRead, 2, 0) // evicts the Begin span
	r.End(id, 99)                            // must not corrupt the slot reused by seq 3
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.End == 99 {
			t.Errorf("End patched an evicted slot: %+v", ev)
		}
	}
	// The scope must still have been popped: new events are root again.
	r.Instant(TrackRequests, KReqRead, 3, 0)
	evs = r.Events()
	if last := evs[len(evs)-1]; last.Parent != 0 {
		t.Errorf("scope not popped after evicted End: parent %d", last.Parent)
	}
}

// Wall-clock events take no slot of the flight ring: however many of
// them interleave, the ring keeps the last n simulated-time events and
// Dropped counts only those, while the wall-clock tracks keep their own
// last n. A scope span ends correctly across the interleaving.
func TestFlightRecorderKeepsWallClockApart(t *testing.T) {
	record := func(wall int) *Recorder {
		r := NewFlightRecorder(4)
		id := r.Begin(TrackGC, KGCCollect, 0, 0)
		for i := 0; i < 3; i++ {
			r.Span(DieTrack(0), KDieErase, event.Time(i), event.Time(i+1), 0)
			for j := 0; j < wall; j++ {
				r.Instant(TrackIngest, KIngestStall, event.Time(j), uint64(j))
			}
		}
		r.End(id, 50)
		for i := 0; i < 6; i++ {
			r.Instant(TrackRequests, KReqRead, event.Time(60+i), 0)
		}
		return r
	}
	plain := record(0)
	for _, wall := range []int{1, 7} {
		r := record(wall)
		if r.Dropped() != plain.Dropped() || r.Dropped() != 6 {
			t.Fatalf("%d wall events per span: dropped %d, want %d", wall, r.Dropped(), plain.Dropped())
		}
		var sim, walls []Event
		evs := r.Events()
		for i, ev := range evs {
			if i > 0 && ev.Seq <= evs[i-1].Seq {
				t.Fatalf("events out of sequence order at %d: %+v", i, evs)
			}
			if ev.Track.wallClock() {
				walls = append(walls, ev)
			} else {
				sim = append(sim, ev)
			}
		}
		if len(walls) != min(4, 3*wall) {
			t.Fatalf("%d wall events per span: %d wall-clock events held, want %d", wall, len(walls), min(4, 3*wall))
		}
		if len(sim) != 4 || r.Len() != len(evs) {
			t.Fatalf("%d wall events per span: %d simulated-time events held, len %d", wall, len(sim), r.Len())
		}
		for i, ev := range sim {
			if want := plain.Events()[i]; ev.Kind != want.Kind || ev.Start != want.Start {
				t.Fatalf("%d wall events per span: window event %d = %+v, want %+v", wall, i, ev, want)
			}
		}
	}
	// A window with a gap in its numbering (seq 3 evicted, older
	// wall-clock events kept): the collect span's End lands on it, and
	// the summary still finds it as the program span's parent.
	r := NewFlightRecorder(2)
	r.Instant(TrackIngest, KIngestStall, 0, 0)
	r.Instant(TrackIngest, KIngestStall, 0, 1)
	r.Instant(TrackRequests, KReqRead, 0, 0)
	id := r.Begin(TrackGC, KGCCollect, 1, 0)
	r.Span(DieTrack(0), KDieProgram, 1, 3, 0)
	r.End(id, 50)
	evs := r.Events()
	if len(evs) != 4 || evs[1].Seq != 2 || evs[2].Seq != 4 || evs[2].End != 50 {
		t.Fatalf("gapped window = %+v, want seqs 1, 2, 4, 5 with the collect ending at 50", evs)
	}
	if s := Summarize(r); s.GC.MigrateProgram != 2 || s.Events != 2 || s.Dropped != 1 {
		t.Fatalf("summary of a gapped window: migrate-program %d, events %d, dropped %d; want 2, 2, 1",
			s.GC.MigrateProgram, s.Events, s.Dropped)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	id := r.Begin(TrackRequests, KReqWrite, 0, 0)
	_ = id
	r.Span(TrackGC, KGCCollect, 0, 1, 0)
	r.Reset()
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatal("reset left events behind")
	}
	r.Instant(TrackRequests, KReqRead, 5, 0)
	evs := r.Events()
	if evs[0].Seq != 1 || evs[0].Parent != 0 {
		t.Fatalf("post-reset event = %+v, want seq 1, no parent", evs[0])
	}
}

func TestNopTracerZeroAllocs(t *testing.T) {
	var tr *Recorder // tracing off
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(TrackRequests, KReqWrite, 0, 1)
		tr.Span(DieTrack(3), KDieProgram, 0, 10, 2)
		tr.Instant(TrackGC, KGCSelect, 5, 3)
		tr.Counter(TrackIndex, KIndexLive, 5, 4)
		tr.End(id, 10)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.2f objects/op, want 0", allocs)
	}
}

func TestFlightRecorderSteadyStateZeroAllocs(t *testing.T) {
	r := NewFlightRecorder(64)
	// Warm: fill the ring once.
	for i := 0; i < 128; i++ {
		r.Instant(TrackRequests, KReqRead, event.Time(i), 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id := r.Begin(TrackRequests, KReqWrite, 0, 0)
		r.Span(DieTrack(0), KDieProgram, 0, 10, 0)
		r.End(id, 10)
	})
	if allocs != 0 {
		t.Fatalf("flight recorder allocated %.2f objects/op in steady state, want 0", allocs)
	}
}

func TestChunkedRecorderAmortizedAllocs(t *testing.T) {
	r := NewRecorder()
	// ≤1 amortized per event is the contract; one chunk per 4096 events
	// plus occasional chunk-slice growth lands far below it.
	allocs := testing.AllocsPerRun(3*chunkEvents, func() {
		r.Span(DieTrack(0), KDieRead, 0, 10, 0)
	})
	if allocs > 0.01 {
		t.Fatalf("chunked recorder allocated %.4f objects/event, want ≤ 0.01 amortized", allocs)
	}
}

func TestKindTableComplete(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.Name() == "" || k.Name() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		switch k.Phase() {
		case 'X', 'i', 'C':
		default:
			t.Errorf("kind %s has phase %q", k.Name(), k.Phase())
		}
	}
}

func TestTrackHelpers(t *testing.T) {
	if die, ok := IsDieTrack(DieTrack(5)); !ok || die != 5 {
		t.Errorf("DieTrack round-trip: %d %v", die, ok)
	}
	if unit, ok := IsHashTrack(HashTrack(2)); !ok || unit != 2 {
		t.Errorf("HashTrack round-trip: %d %v", unit, ok)
	}
	if _, ok := IsDieTrack(TrackGC); ok {
		t.Error("TrackGC classified as die track")
	}
	if _, ok := IsHashTrack(DieTrack(0)); ok {
		t.Error("die track classified as hash track")
	}
}
