package event

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{12 * Microsecond, "12.000us"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
		{0, "0ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (14 * Microsecond).Micros(); got != 14 {
		t.Errorf("Micros = %v, want 14", got)
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis = %v, want 1.5", got)
	}
}

// TestSim holds the pump's contract: the event-driven reference replay
// and the benchmark's event kernel rely on each case.
// drain fires every queued event and returns the final time.
func drain(s *Sim) Time {
	for s.Step() {
	}
	return s.now
}

func TestSim(t *testing.T) {
	// record returns a handler appending each event's argument to got.
	record := func(got *[]uint64) ArgHandler {
		return func(_ Time, arg uint64) { *got = append(*got, arg) }
	}
	cases := []struct {
		name string
		run  func(t *testing.T, s *Sim)
	}{
		{"time_order", func(t *testing.T, s *Sim) {
			// Enough events at random times to sift through several
			// heap levels; ties among them keep scheduling order.
			rng := rand.New(rand.NewSource(7))
			at := make([]Time, 1000)
			var got []uint64
			h := ArgHandler(func(now Time, i uint64) {
				if now != at[i] {
					t.Errorf("event %d fired at %v, want %v", i, now, at[i])
				}
				got = append(got, i)
			})
			for i := range at {
				at[i] = Time(rng.Intn(500))
				_ = s.AtArg(at[i], h, uint64(i))
			}
			end := drain(s)
			want := make([]uint64, len(at))
			for i := range want {
				want[i] = uint64(i)
			}
			slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(at[a], at[b]) })
			if len(got) != len(want) {
				t.Fatalf("fired %d events, want %d", len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("event %d fired in position %d, want event %d", got[k], k, want[k])
				}
			}
			if last := at[want[len(want)-1]]; end != last {
				t.Fatalf("final time = %v, want %v", end, last)
			}
		}},
		{"same_time_fifo", func(t *testing.T, s *Sim) {
			var got []uint64
			h := record(&got)
			want := make([]uint64, 100)
			for i := range want {
				want[i] = uint64(i)
				_ = s.AtArg(42, h, want[i])
			}
			drain(s)
			if !slices.Equal(got, want) {
				t.Fatalf("same-time events fired in order %v, want 0..99", got)
			}
		}},
		{"nested_scheduling", func(t *testing.T, s *Sim) {
			var fired []Time
			var h ArgHandler
			h = func(now Time, depth uint64) {
				fired = append(fired, now)
				if depth > 0 {
					_ = s.AtArg(now+5, h, depth-1)
				}
			}
			_ = s.AtArg(10, h, 2)
			drain(s)
			if !slices.Equal(fired, []Time{10, 15, 20}) {
				t.Fatalf("fired at %v, want [10 15 20]", fired)
			}
		}},
		{"past_event", func(t *testing.T, s *Sim) {
			var got []uint64
			h := record(&got)
			_ = s.AtArg(100, h, 1)
			drain(s)
			if err := s.AtArg(50, h, 2); !errors.Is(err, ErrPastEvent) {
				t.Fatalf("AtArg in the past = %v, want ErrPastEvent", err)
			}
			if s.Step() {
				t.Fatalf("a rejected event was queued; fired %v", got)
			}
		}},
		{"stop_keeps_queue", func(t *testing.T, s *Sim) {
			// A caller that stops stepping leaves the rest queued.
			count := 0
			h := ArgHandler(func(Time, uint64) { count++ })
			for i := 1; i <= 10; i++ {
				_ = s.AtArg(Time(i), h, 0)
			}
			for count < 3 && s.Step() {
			}
			if s.now != 3 || count != 3 {
				t.Fatalf("stopped stepping: ran %d events to %v, want 3 to 3", count, s.now)
			}
			if end := drain(s); end != 10 || count != 10 {
				t.Fatalf("resumed stepping: ran %d events to %v, want 10 to 10", count, end)
			}
		}},
		{"steady_state_zero_alloc", func(t *testing.T, s *Sim) {
			var sum uint64
			h := ArgHandler(func(_ Time, arg uint64) { sum += arg })
			// Warm the heap past any size the loop below reaches.
			for i := 0; i < 256; i++ {
				_ = s.AtArg(Time(i), h, 1)
			}
			drain(s)
			allocs := testing.AllocsPerRun(1000, func() {
				_ = s.AtArg(s.now+10, h, 1)
				s.Step()
			})
			if allocs != 0 {
				t.Fatalf("steady-state schedule+fire allocated %.1f objects/op, want 0", allocs)
			}
			if sum == 0 {
				t.Fatal("handler never ran")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, NewSimOpts(SchedAuto, 0)) })
	}
}

func TestSimOrdering(t *testing.T) {
	s := NewSimOpts(SchedAuto, 0)
	var got []uint64
	h := ArgHandler(func(_ Time, arg uint64) { got = append(got, arg) })
	_ = s.AtArg(30, h, 3)
	_ = s.AtArg(10, h, 1)
	_ = s.AtArg(20, h, 2)
	if end := drain(s); end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("fired order %v, want [1 2 3]", got)
	}
}

// Property: whatever the scheduling order, events fire in time order.
func TestSimSortedFiringProperty(t *testing.T) {
	prop := func(at []uint16) bool {
		s := NewSimOpts(SchedAuto, 0)
		var fired []Time
		h := ArgHandler(func(now Time, _ uint64) { fired = append(fired, now) })
		for _, a := range at {
			_ = s.AtArg(Time(a), h, 0)
		}
		drain(s)
		return len(fired) == len(at) && slices.IsSorted(fired)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Two pumps fed the same random schedule fire the same sequence.
func TestSimManyRandomEventsDeterministic(t *testing.T) {
	run := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		s := NewSimOpts(SchedAuto, 0)
		var fired []uint64
		h := ArgHandler(func(now Time, i uint64) { fired = append(fired, uint64(now)<<32|i) })
		for i := 0; i < 1000; i++ {
			_ = s.AtArg(Time(rng.Intn(500)), h, uint64(i))
		}
		drain(s)
		return fired
	}
	a, b := run(7), run(7)
	if len(a) != 1000 || !slices.Equal(a, b) {
		t.Fatalf("two runs of one schedule differ: %d and %d events", len(a), len(b))
	}
}

func TestTimelineSequentialReservations(t *testing.T) {
	tl := NewTimeline()
	s1, e1 := tl.Reserve(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first reservation [%v,%v), want [0,10)", s1, e1)
	}
	// Requested at 5 but the resource is busy until 10.
	s2, e2 := tl.Reserve(5, 7)
	if s2 != 10 || e2 != 17 {
		t.Fatalf("contended reservation [%v,%v), want [10,17)", s2, e2)
	}
	// Requested after the frontier: starts exactly at request time.
	s3, e3 := tl.Reserve(100, 3)
	if s3 != 100 || e3 != 103 {
		t.Fatalf("idle reservation [%v,%v), want [100,103)", s3, e3)
	}
}

func TestTimelineReserveAfterDependency(t *testing.T) {
	tl := NewTimeline()
	s, e := tl.ReserveAfter(0, 50, 10)
	if s != 50 || e != 60 {
		t.Fatalf("got [%v,%v), want [50,60)", s, e)
	}
}

func TestTimelineNegativeDuration(t *testing.T) {
	tl := NewTimeline()
	s, e := tl.Reserve(10, -5)
	if s != 10 || e != 10 {
		t.Fatalf("got [%v,%v), want [10,10)", s, e)
	}
	if tl.FreeAt() != 10 {
		t.Fatalf("free at %v, want 10", tl.FreeAt())
	}
}

// Back-to-back reservations account for all the time booked: the
// windows tile [0, 30) and the frontier sits at their end.
func TestTimelineAccounting(t *testing.T) {
	tl := NewTimeline()
	var busy Time
	for _, dur := range []Time{10, 20} {
		s, e := tl.Reserve(0, dur)
		if s != busy {
			t.Fatalf("reservation of %v starts at %v, want %v", dur, s, busy)
		}
		busy += e - s
	}
	if busy != 30 || tl.FreeAt() != 30 {
		t.Fatalf("busy = %v, free at %v; want 30 and 30", busy, tl.FreeAt())
	}
}

// Property: reservations never overlap and never start before requested.
func TestTimelineNoOverlapProperty(t *testing.T) {
	prop := func(reqs []struct {
		At  uint16
		Dur uint8
	}) bool {
		tl := NewTimeline()
		prevEnd := Time(0)
		for _, r := range reqs {
			s, e := tl.Reserve(Time(r.At), Time(r.Dur))
			if s < Time(r.At) || s < prevEnd || e != s+Time(r.Dur) {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
