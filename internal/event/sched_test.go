package event

import (
	"testing"
)

// bothKinds runs a subtest against each scheduler implementation.
func bothKinds(t *testing.T, f func(t *testing.T, kind SchedKind)) {
	t.Helper()
	for _, kind := range []SchedKind{SchedAuto, SchedCalendar, SchedHeap} {
		t.Run(kind.String(), func(t *testing.T) { f(t, kind) })
	}
}

func TestParseSched(t *testing.T) {
	cases := []struct {
		name string
		want SchedKind
		ok   bool
	}{
		{"", SchedAuto, true},
		{"auto", SchedAuto, true},
		{"calendar", SchedCalendar, true},
		{"heap", SchedHeap, true},
		{"wheel", 0, false},
		{"Calendar", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSched(c.name)
		if c.ok != (err == nil) {
			t.Errorf("ParseSched(%q) error = %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSched(%q) = %v, want %v", c.name, got, c.want)
		}
	}
	if SchedAuto.String() != "auto" || SchedCalendar.String() != "calendar" || SchedHeap.String() != "heap" {
		t.Errorf("String() = %q/%q/%q, want auto/calendar/heap", SchedAuto, SchedCalendar, SchedHeap)
	}
}

func TestBucketShift(t *testing.T) {
	cases := []struct {
		hint Time
		want uint
	}{
		{0, defaultBucketShift},
		{-5, defaultBucketShift},
		{1, minBucketShift},      // tiny hints clamp up
		{12 * Microsecond, 14},   // Table-I read latency -> 16.4 us buckets
		{16384, 14},              // exact power of two stays
		{16385, 15},              // just past rounds up
		{Second, maxBucketShift}, // absurd hints clamp down
	}
	for _, c := range cases {
		if got := bucketShift(c.hint); got != c.want {
			t.Errorf("bucketShift(%d) = %d, want %d", c.hint, got, c.want)
		}
	}
}

// TestSchedSameTickInsertDuringPop: a handler that schedules another
// event for the very same instant must see it fire after every event
// already queued for that instant, in both schedulers.
func TestSchedSameTickInsertDuringPop(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind SchedKind) {
		s := NewSimOpts(kind, 0)
		var order []int
		s.After(10, func(now Time) {
			order = append(order, 1)
			// Same-tick insert during pop: fires at now, after #2 and #3.
			s.After(0, func(Time) { order = append(order, 4) })
		})
		s.After(10, func(Time) { order = append(order, 2) })
		s.After(10, func(Time) { order = append(order, 3) })
		s.Run()
		want := []int{1, 2, 3, 4}
		if len(order) != len(want) {
			t.Fatalf("fired %d events, want %d", len(order), len(want))
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("firing order %v, want %v", order, want)
			}
		}
	})
}

// TestSchedFarPastClamped: negative delays clamp to the current tick,
// absolute past times are rejected, and rescheduling into the past
// fails without disturbing the pending event.
func TestSchedFarPastClamped(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind SchedKind) {
		s := NewSimOpts(kind, 0)
		s.After(100, func(Time) {})
		s.Run() // now = 100

		fired := false
		s.After(-1<<40, func(now Time) {
			fired = true
			if now != 100 {
				t.Errorf("clamped event fired at %v, want 100", now)
			}
		})
		if err := s.At(99, func(Time) {}); err == nil {
			t.Error("At(past) succeeded, want ErrPastEvent")
		}
		h, err := s.ScheduleAt(200, func(Time) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Reschedule(h, 50); ok {
			t.Error("Reschedule into the past succeeded, want refusal")
		}
		if s.Pending() != 2 {
			t.Errorf("Pending = %d after refused reschedule, want 2", s.Pending())
		}
		s.Run()
		if !fired {
			t.Error("negative-delay event never fired")
		}
		if s.Now() != 200 {
			t.Errorf("final time %v, want 200 (handle survived refused move)", s.Now())
		}
	})
}

// TestSchedHandleAfterFire: once a handle's event has popped, the
// handle is dead — Cancel and Reschedule both refuse.
func TestSchedHandleAfterFire(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind SchedKind) {
		s := NewSimOpts(kind, 0)
		h, err := s.ScheduleAt(10, func(Time) {})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		if s.Cancel(h) {
			t.Error("Cancel of an already-fired handle succeeded")
		}
		if _, ok := s.Reschedule(h, 20); ok {
			t.Error("Reschedule of an already-fired handle succeeded")
		}
		if got := s.SchedStats().Cancels; got != 0 {
			t.Errorf("Cancels = %d after refused cancel, want 0", got)
		}
	})
}

func TestSchedCancel(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind SchedKind) {
		s := NewSimOpts(kind, 0)
		canceled := false
		h, _ := s.ScheduleAt(10, func(Time) { canceled = true })
		s.After(20, func(Time) {})
		if !s.Cancel(h) {
			t.Fatal("Cancel of a pending handle failed")
		}
		if s.Cancel(h) {
			t.Error("second Cancel of the same handle succeeded")
		}
		if s.Pending() != 1 {
			t.Errorf("Pending = %d after cancel, want 1", s.Pending())
		}
		s.Run()
		if canceled {
			t.Error("canceled event fired anyway")
		}
		if s.Now() != 20 {
			t.Errorf("final time %v, want 20 (stale skip must not advance clock)", s.Now())
		}
		st := s.SchedStats()
		if st.Cancels != 1 || st.StaleSkipped != 1 {
			t.Errorf("stats = %d cancels / %d stale-skipped, want 1/1", st.Cancels, st.StaleSkipped)
		}
	})
}

func TestSchedReschedule(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind SchedKind) {
		s := NewSimOpts(kind, 0)
		var at Time
		h, _ := s.ScheduleAtArg(10, func(now Time, arg uint64) { at = now }, 7)
		h2, ok := s.Reschedule(h, 30)
		if !ok {
			t.Fatal("Reschedule of a pending handle failed")
		}
		if s.Cancel(h) {
			t.Error("stale pre-move handle still cancels")
		}
		if s.Pending() != 1 {
			t.Errorf("Pending = %d after reschedule, want 1", s.Pending())
		}
		s.Run()
		if at != 30 {
			t.Errorf("rescheduled event fired at %v, want 30", at)
		}
		if s.Cancel(h2) {
			t.Error("Cancel of the fired replacement handle succeeded")
		}
		st := s.SchedStats()
		if st.Reschedules != 1 || st.StaleSkipped != 1 {
			t.Errorf("stats = %d reschedules / %d stale-skipped, want 1/1", st.Reschedules, st.StaleSkipped)
		}
	})
}

// TestSchedOverflowRotation drives events far past the calendar window
// so the overflow ladder and rotation machinery engage, and checks the
// firing order stays total.
func TestSchedOverflowRotation(t *testing.T) {
	s := NewSimOpts(SchedCalendar, 0)
	c, ok := s.q.(*calendar)
	if !ok {
		t.Fatal("pinned scheduler is not the calendar")
	}
	span := c.span()
	var fired []Time
	rec := func(now Time, _ uint64) { fired = append(fired, now) }
	// Interleave near events with events 1..8 spans out, scheduled in a
	// scrambled order.
	// 3*span and 3*span+4 share a window, so at least one rotation
	// takes the full migrate-into-buckets path rather than the sparse
	// pop-straight-off-the-ladder fast path.
	times := []Time{
		3 * span, 5, span + 7, 8 * span, 2, 6*span + 3, span - 1, 4 * span,
		2*span + 9, 1, 3*span + 4,
	}
	for _, at := range times {
		if err := s.AtArg(at, rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order: %v after %v", fired[i], fired[i-1])
		}
	}
	st := s.SchedStats()
	if st.Rotations == 0 || st.OverflowMigrations == 0 {
		t.Errorf("stats = %d rotations / %d migrations, want both > 0 (ladder never engaged)",
			st.Rotations, st.OverflowMigrations)
	}
	if st.Buckets != calBuckets || st.BucketWidth != c.width() {
		t.Errorf("stats geometry = %d buckets x %v, want %d x %v",
			st.Buckets, st.BucketWidth, calBuckets, c.width())
	}
}

// TestSchedEmptyQueueRebase: after the queue drains, far-future
// inserts land in the ladder (the window re-bases on the clock, not on
// the inserted item — inserts are only bounded below by now), and one
// rotation at pop time migrates them into the buckets in order.
func TestSchedEmptyQueueRebase(t *testing.T) {
	s := NewSimOpts(SchedCalendar, 0)
	s.After(5, func(Time) {})
	s.Run()
	far := s.Now() + 100*s.q.(*calendar).span()
	var order []Time
	_ = s.At(far+10, func(now Time) { order = append(order, now) })
	_ = s.At(far, func(now Time) { order = append(order, now) })
	s.Run()
	if len(order) != 2 || order[0] != far || order[1] != far+10 {
		t.Fatalf("firing order %v, want [%v %v]", order, far, far+10)
	}
	if st := s.SchedStats(); st.Rotations != 1 || st.OverflowMigrations != 2 {
		t.Errorf("stats = %d rotations / %d migrations, want 1/2", st.Rotations, st.OverflowMigrations)
	}
}

// TestSchedHeapStats: heap stats report no calendar geometry.
func TestSchedHeapStats(t *testing.T) {
	s := NewSimOpts(SchedHeap, 0)
	s.After(1, func(Time) {})
	st := s.SchedStats()
	if st.Kind != SchedHeap || st.Buckets != 0 || st.BucketWidth != 0 || st.Rotations != 0 {
		t.Errorf("heap stats = %+v, want no calendar geometry", st)
	}
	if st.MaxDepth != 1 {
		t.Errorf("MaxDepth = %d, want 1", st.MaxDepth)
	}
}

// TestSchedRunUntilStaleHead: RunUntil peeking past a canceled head
// must neither fire it nor advance the clock beyond the deadline, in
// both schedulers.
func TestSchedRunUntilStaleHead(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind SchedKind) {
		s := NewSimOpts(kind, 0)
		h, _ := s.ScheduleAt(10, func(Time) { t.Error("canceled event fired") })
		fired := false
		s.After(50, func(Time) { fired = true })
		s.Cancel(h)
		if got := s.RunUntil(30); got != 30 {
			t.Errorf("RunUntil(30) = %v, want 30", got)
		}
		if fired {
			t.Error("event beyond the deadline fired")
		}
		s.RunUntil(60)
		if !fired {
			t.Error("live event never fired")
		}
	})
}

// TestSchedHandleSteadyStateAlloc guards the cancelable path: schedule
// via handle, cancel, reschedule, and fire — zero allocations per cycle
// once the slot table and buckets are warm.
func TestSchedHandleSteadyStateAlloc(t *testing.T) {
	bothKinds(t, func(t *testing.T, kind SchedKind) {
		s := NewSimOpts(kind, 0)
		var sum uint64
		h := ArgHandler(func(now Time, arg uint64) { sum += arg })
		// Warm the slot table, free list, and queue storage.
		for i := 0; i < 64; i++ {
			cycleHandles(s, h)
		}
		allocs := testing.AllocsPerRun(1000, func() { cycleHandles(s, h) })
		if allocs != 0 {
			t.Fatalf("steady-state handle cycle allocated %.1f objects/op, want 0", allocs)
		}
		if sum == 0 {
			t.Fatal("handler never ran")
		}
	})
}

// cycleHandles is one steady-state cycle: three handle-carrying events,
// one canceled, one rescheduled, queue drained back to empty (the two
// stale items are absorbed on the way to the live ones).
func cycleHandles(s *Sim, h ArgHandler) {
	now := s.Now()
	h1, _ := s.ScheduleAtArg(now+1, h, 1)
	h2, _ := s.ScheduleAtArg(now+2, h, 2)
	_, _ = s.ScheduleAtArg(now+3, h, 3)
	s.Cancel(h1)
	s.Reschedule(h2, now+4)
	for s.Step() {
	}
}

// TestSchedHybridEscalation: the auto scheduler runs on the heap while
// shallow, escalates to the calendar once occupancy crosses the
// threshold, and reverts to the heap when the calendar drains — firing
// everything in the same (time, seq) order as the pinned heap.
func TestSchedHybridEscalation(t *testing.T) {
	old := hybridThreshold
	hybridThreshold = 4
	defer func() { hybridThreshold = old }()

	s := NewSimOpts(SchedAuto, 0)
	ref := NewSimOpts(SchedHeap, 0)
	hq := s.q.(*hybridQ)

	if st := s.SchedStats(); st.Kind != SchedAuto || st.Buckets != 0 || st.Escalations != 0 {
		t.Fatalf("pristine auto stats = %+v, want no calendar geometry and no escalations", st)
	}

	var got, want []Time
	rec := func(now Time) { got = append(got, now) }
	refRec := func(now Time) { want = append(want, now) }
	// Scrambled schedule, more than threshold items deep.
	for _, at := range []Time{90, 10, 70, 30, 50, 20, 80, 40, 60, 100} {
		_ = s.At(at, rec)
		_ = ref.At(at, refRec)
	}
	if !hq.deep {
		t.Fatal("queue above threshold did not escalate to the calendar")
	}
	s.Run()
	ref.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, heap fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, heap at %v", i, got[i], want[i])
		}
	}
	if hq.deep {
		t.Error("drained queue did not revert to the heap")
	}
	st := s.SchedStats()
	if st.Escalations != 1 {
		t.Errorf("Escalations = %d, want 1", st.Escalations)
	}
	if st.Buckets != calBuckets || st.BucketWidth == 0 {
		t.Errorf("escalated auto stats report no calendar geometry: %+v", st)
	}

	// Below the threshold the queue stays on the heap.
	_ = s.At(s.Now()+5, rec)
	if hq.deep {
		t.Error("shallow push after revert escalated again")
	}
	s.Run()
}

// TestSchedHybridShallowStaysHeap: at the replay's real occupancy (a
// couple of pending arrivals) the auto scheduler never touches the
// calendar — the Mail-regression fix is that this path is pure heap.
func TestSchedHybridShallowStaysHeap(t *testing.T) {
	s := NewSimOpts(SchedAuto, 0)
	fired := 0
	for i := 0; i < 1000; i++ {
		_ = s.At(s.Now()+Time(i%3+1), func(Time) { fired++ })
		s.Step()
	}
	s.Run()
	if fired != 1000 {
		t.Fatalf("fired %d of 1000 events", fired)
	}
	hq := s.q.(*hybridQ)
	if hq.cal != nil || hq.escalations != 0 {
		t.Errorf("shallow workload built a calendar (escalations=%d)", hq.escalations)
	}
}
