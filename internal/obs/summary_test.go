package obs

import (
	"strings"
	"testing"

	"cagc/internal/event"
)

func TestUnionize(t *testing.T) {
	cases := []struct {
		name  string
		in    []ival
		want  []ival
		total event.Time
	}{
		{"empty", nil, nil, 0},
		{"single", []ival{{0, 10}}, []ival{{0, 10}}, 10},
		{"disjoint", []ival{{20, 30}, {0, 10}}, []ival{{0, 10}, {20, 30}}, 20},
		{"overlap", []ival{{0, 10}, {5, 15}}, []ival{{0, 15}}, 15},
		{"touching", []ival{{0, 10}, {10, 20}}, []ival{{0, 20}}, 20},
		{"contained", []ival{{0, 100}, {10, 20}, {30, 40}}, []ival{{0, 100}}, 100},
	}
	for _, c := range cases {
		got, total := unionize(append([]ival(nil), c.in...))
		if total != c.total {
			t.Errorf("%s: total = %d, want %d", c.name, total, c.total)
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: merged = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: merged = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		name string
		a, b []ival
		want event.Time
	}{
		{"empty", nil, []ival{{0, 10}}, 0},
		{"disjoint", []ival{{0, 10}}, []ival{{20, 30}}, 0},
		{"half", []ival{{0, 10}}, []ival{{5, 15}}, 5},
		{"contained", []ival{{0, 100}}, []ival{{10, 20}, {30, 40}}, 20},
		{"interleaved", []ival{{0, 10}, {20, 30}}, []ival{{5, 25}}, 10},
		{"touching", []ival{{0, 10}}, []ival{{10, 20}}, 0},
	}
	for _, c := range cases {
		if got := intersect(c.a, c.b); got != c.want {
			t.Errorf("%s: intersect = %d, want %d", c.name, got, c.want)
		}
		if got := intersect(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): intersect = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSummarizeOverlapRatio(t *testing.T) {
	r := NewRecorder()
	gc := r.Begin(TrackGC, KGCCollect, 0, 0)
	// hash [0,10] under erase [5,15]: 5 of 10 hashing hidden → 0.5.
	r.Span(HashTrack(0), KHashGC, 0, 10, 0)
	r.Span(DieTrack(0), KDieErase, 5, 15, 0)
	r.End(gc, 15)
	s := Summarize(r)
	if got := s.GC.OverlapRatio(); got != 0.5 {
		t.Errorf("overlap ratio = %v, want 0.5", got)
	}
	if s.GC.HashUnion != 10 || s.GC.OverlapTime != 5 {
		t.Errorf("hash union %d / overlap %d, want 10 / 5", s.GC.HashUnion, s.GC.OverlapTime)
	}
}

func TestSummarizeNoGCHashing(t *testing.T) {
	r := NewRecorder()
	r.Span(HashTrack(0), KHashInline, 0, 10, 0) // inline hashing only
	r.Span(DieTrack(0), KDieErase, 0, 50, 0)
	s := Summarize(r)
	if got := s.GC.OverlapRatio(); got != 0 {
		t.Errorf("overlap ratio with no GC hashing = %v, want 0", got)
	}
	if s.HashBusy != 10 {
		t.Errorf("hash busy = %d, want 10", s.HashBusy)
	}
}

func TestSummarizeGCAttribution(t *testing.T) {
	r := NewRecorder()
	// Foreground request: its die time must NOT count as GC migration.
	req := r.Begin(TrackRequests, KReqWrite, 0, 1)
	r.Span(DieTrack(0), KDieProgram, 0, 10, 0)
	r.End(req, 10)
	// One GC collection: read 3, program 4, erase 50.
	gc := r.Begin(TrackGC, KGCCollect, 100, 2)
	r.Instant(TrackGC, KGCSelect, 100, 2)
	r.Span(DieTrack(1), KDieRead, 100, 103, 0)
	r.Span(DieTrack(1), KDieProgram, 103, 107, 0)
	r.Instant(TrackGC, KGCDedupHit, 103, 0)
	r.Instant(TrackGC, KGCPublish, 104, 0)
	r.Instant(TrackGC, KPromote, 105, 0)
	r.Instant(TrackGC, KDemote, 106, 0)
	r.Span(DieTrack(0), KDieErase, 107, 157, 0)
	r.End(gc, 157)
	r.Instant(TrackGC, KIdleGC, 200, 1)
	r.Instant(TrackGC, KWearLevel, 210, 0)
	// Wall-clock harness work (a decode-ahead chunk) ends later in its
	// own time base and must not stretch the simulated window.
	r.Span(TrackIngest, KIngestChunk, 0, 5000, 256)

	s := Summarize(r)
	g := s.GC
	if g.Collects != 1 || g.Selects != 1 {
		t.Errorf("collects/selects = %d/%d, want 1/1", g.Collects, g.Selects)
	}
	if g.MigrateRead != 3 || g.MigrateProgram != 4 || g.Erase != 50 {
		t.Errorf("migrate read/program/erase = %d/%d/%d, want 3/4/50",
			g.MigrateRead, g.MigrateProgram, g.Erase)
	}
	if g.DupDropped != 1 || g.Publishes != 1 || g.Promotions != 1 || g.Demotions != 1 {
		t.Errorf("dup/publish/promote/demote = %d/%d/%d/%d, want all 1",
			g.DupDropped, g.Publishes, g.Promotions, g.Demotions)
	}
	if g.IdleWindows != 1 || g.WearSwaps != 1 {
		t.Errorf("idle/wear = %d/%d, want 1/1", g.IdleWindows, g.WearSwaps)
	}
	if s.Requests != 1 || s.Writes != 1 {
		t.Errorf("requests/writes = %d/%d, want 1/1", s.Requests, s.Writes)
	}
	if len(s.Dies) != 2 {
		t.Fatalf("dies = %d, want 2", len(s.Dies))
	}
	if s.Dies[0].Busy != 60 || s.Dies[1].Busy != 7 {
		t.Errorf("die busy = %d/%d, want 60/7", s.Dies[0].Busy, s.Dies[1].Busy)
	}
	if s.Horizon != 210 {
		t.Errorf("horizon = %d, want 210", s.Horizon)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(NewRecorder())
	if s.Events != 0 || s.Requests != 0 || s.GC.OverlapRatio() != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	var sb strings.Builder
	if err := s.WriteText(&sb, "empty"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0 events") {
		t.Errorf("text report: %q", sb.String())
	}
}

// The wall-clock ingest track's events, whose number depends on the
// host, count neither in Events nor toward the horizon.
func TestSummarizeCountsSimulatedEventsOnly(t *testing.T) {
	r := NewRecorder()
	r.Span(TrackRequests, KReqRead, 10, 40, 0)
	r.Span(DieTrack(0), KDieRead, 15, 35, 0)
	r.Span(TrackIngest, KIngestChunk, 0, 5_000, 256)
	r.Instant(TrackIngest, KIngestStall, 9_000, 0)
	s := Summarize(r)
	if s.Events != 2 || s.Horizon != 40 {
		t.Fatalf("events %d, horizon %d; want 2 and 40", s.Events, s.Horizon)
	}
}

func TestWriteTextReportsOverlap(t *testing.T) {
	r := NewRecorder()
	gc := r.Begin(TrackGC, KGCCollect, 0, 0)
	r.Span(HashTrack(0), KHashGC, 0, 10_000, 0)
	r.Span(DieTrack(0), KDieErase, 5_000, 15_000, 0)
	r.End(gc, 15_000)
	var sb strings.Builder
	if err := Summarize(r).WriteText(&sb, "unit"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "fingerprint/erase overlap: 0.500") {
		t.Errorf("report missing overlap line:\n%s", out)
	}
	if !strings.Contains(out, "trace summary [unit]") {
		t.Errorf("report missing label:\n%s", out)
	}
}

func TestFdur(t *testing.T) {
	cases := []struct {
		t    event.Time
		want string
	}{
		{0, "0.0us"},
		{1500, "1.5us"},
		{2_500_000, "2.500ms"},
		{3_250_000_000, "3.250s"},
	}
	for _, c := range cases {
		if got := fdur(c.t); got != c.want {
			t.Errorf("fdur(%d) = %q, want %q", c.t, got, c.want)
		}
	}
}
