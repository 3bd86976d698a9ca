package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRecorder builds a small fixed trace exercising every Chrome
// phase the exporter emits: metadata, spans (with parenting), instants,
// and counters across singleton, die, and hash tracks.
func goldenRecorder() *Recorder {
	r := NewRecorder()
	req := r.Begin(TrackRequests, KReqWrite, 1000, 7)
	r.Span(HashTrack(0), KHashInline, 1000, 3500, 0)
	r.Span(DieTrack(1), KDieProgram, 3500, 13500, 42)
	r.End(req, 13500)
	gc := r.Begin(TrackGC, KGCCollect, 20000, 3)
	r.Instant(TrackGC, KGCSelect, 20000, 3)
	r.Span(DieTrack(0), KDieRead, 20000, 23000, 9)
	r.Span(HashTrack(1), KHashGC, 23000, 25500, 0)
	r.Instant(TrackGC, KGCDedupHit, 25500, 9)
	r.Span(DieTrack(0), KDieErase, 23000, 73000, 3)
	r.End(gc, 73000)
	r.Counter(TrackIndex, KIndexLive, 73000, 12)
	r.Instant(TrackBuffer, KBufHit, 74000, 5)
	return r
}

func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenRecorder()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exporter output drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intended)",
			buf.Bytes(), want)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, goldenRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, goldenRecorder()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of identical traces differ byte-for-byte")
	}
}

// chromeEvent mirrors the trace_event fields the schema test checks.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    *json.Number   `json:"ts"`
	Dur   *json.Number   `json:"dur"`
	Pid   *int           `json:"pid"`
	Tid   *uint32        `json:"tid"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args,omitempty"`
}

func TestWriteChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenRecorder()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var metas, spans, instants, counters int
	for i, raw := range doc.TraceEvents {
		var ev chromeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Name == "" {
			t.Errorf("event %d has no name", i)
		}
		if ev.Pid == nil || *ev.Pid != 1 {
			t.Errorf("event %d (%s): pid missing or != 1", i, ev.Name)
		}
		if ev.Tid == nil {
			t.Errorf("event %d (%s): tid missing", i, ev.Name)
		}
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			spans++
			if ev.Ts == nil || ev.Dur == nil {
				t.Errorf("event %d (%s): X event missing ts/dur", i, ev.Name)
			}
		case "i":
			instants++
			if ev.Ts == nil {
				t.Errorf("event %d (%s): i event missing ts", i, ev.Name)
			}
			if ev.Scope != "t" {
				t.Errorf("event %d (%s): instant scope %q, want t", i, ev.Name, ev.Scope)
			}
		case "C":
			counters++
			if ev.Ts == nil {
				t.Errorf("event %d (%s): C event missing ts", i, ev.Name)
			}
			if _, ok := ev.Args["v"]; !ok {
				t.Errorf("event %d (%s): counter without args.v", i, ev.Name)
			}
		default:
			t.Errorf("event %d (%s): invalid phase %q", i, ev.Name, ev.Ph)
		}
	}
	// process_name + one thread_name per distinct track (8 tracks in the
	// golden recorder).
	if metas != 9 {
		t.Errorf("metadata events = %d, want 9", metas)
	}
	if spans != 7 || instants != 3 || counters != 1 {
		t.Errorf("phases = %d X / %d i / %d C, want 7/3/1", spans, instants, counters)
	}
}

func TestUsecFormat(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{12345, "12.345"},
		{1_000_000_000, "1000000.000"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := usec(c.ns); got != c.want {
			t.Errorf("usec(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestTrackNames(t *testing.T) {
	cases := []struct {
		t    Track
		want string
	}{
		{TrackRequests, "requests"},
		{TrackGC, "gc"},
		{TrackMap, "map-cache"},
		{TrackBuffer, "write-buffer"},
		{TrackIndex, "dedup-index"},
		{TrackSched, "scheduler"},
		{DieTrack(3), "die 3"},
		{HashTrack(1), "hash 1"},
	}
	for _, c := range cases {
		if got := trackName(c.t); got != c.want {
			t.Errorf("trackName(%d) = %q, want %q", c.t, got, c.want)
		}
	}
}

// The scheduler track carries the work pool's counters and nothing
// else: the replay runs on no event queue, so there is no queue
// occupancy to sample.
func TestSchedKindsArePoolCountersOnly(t *testing.T) {
	var got []string
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.Name(), "sched.") {
			got = append(got, k.Name())
		}
	}
	if want := []string{"sched.steals", "sched.reseeds"}; !reflect.DeepEqual(got, want) {
		t.Errorf("sched.* kinds = %v, want %v", got, want)
	}
}
