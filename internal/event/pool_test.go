package event

import (
	"testing"
	"testing/quick"
)

func TestPoolSingleUnitMatchesTimeline(t *testing.T) {
	p := NewPool(1)
	tl := NewTimeline()
	reqs := []struct{ at, dur Time }{{0, 10}, {5, 7}, {100, 3}, {90, 2}}
	for _, r := range reqs {
		ps, pe, unit := p.ReserveAfterIdx(r.at, 0, r.dur)
		ts, te := tl.Reserve(r.at, r.dur)
		if ps != ts || pe != te || unit != 0 {
			t.Fatalf("pool(1) diverged from timeline: [%v,%v) on unit %d vs [%v,%v)", ps, pe, unit, ts, te)
		}
	}
	if p.units[0].FreeAt() != tl.FreeAt() {
		t.Fatalf("frontier diverged: %v vs %v", p.units[0].FreeAt(), tl.FreeAt())
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool(2)
	// Two simultaneous reservations run in parallel on 2 units.
	_, e1, _ := p.ReserveAfterIdx(0, 0, 10)
	_, e2, _ := p.ReserveAfterIdx(0, 0, 10)
	if e1 != 10 || e2 != 10 {
		t.Fatalf("ends = %v, %v; want both 10", e1, e2)
	}
	// A third queues behind the earliest-free unit.
	s3, e3, _ := p.ReserveAfterIdx(0, 0, 5)
	if s3 != 10 || e3 != 15 {
		t.Fatalf("third = [%v,%v), want [10,15)", s3, e3)
	}
}

func TestPoolClampsUnits(t *testing.T) {
	if NewPool(0).Units() != 1 || NewPool(-3).Units() != 1 {
		t.Fatal("unit clamping broken")
	}
	if NewPool(7).Units() != 7 {
		t.Fatal("unit count wrong")
	}
}

func TestPoolReserveAfter(t *testing.T) {
	p := NewPool(2)
	s, e, unit := p.ReserveAfterIdx(0, 50, 10)
	if s != 50 || e != 60 || unit != 0 {
		t.Fatalf("got [%v,%v) on unit %d, want [50,60) on unit 0", s, e, unit)
	}
}

// Pin ReserveAfterIdx's unit choice: earliest-free unit, and on FreeAt
// ties the lowest-indexed one. The hash pool must stay deterministic —
// a tie broken any other way would reorder reservations between runs.
func TestPoolReserveAfterTieBreak(t *testing.T) {
	p := NewPool(3)
	p.units[0].Reserve(0, 4) // free at 4
	p.units[1].Reserve(0, 2) // free at 2  <- earliest, tied with unit 2
	p.units[2].Reserve(0, 2) // free at 2

	s, e, unit := p.ReserveAfterIdx(0, 0, 5)
	if s != 2 || e != 7 || unit != 1 {
		t.Fatalf("reservation [%v,%v) on unit %d, want [2,7) on unit 1, the earliest-free", s, e, unit)
	}
	if got := p.units[1].FreeAt(); got != 7 {
		t.Fatalf("unit 1 free at %v, want 7 (tie must pick the lowest index)", got)
	}
	if got := p.units[2].FreeAt(); got != 2 {
		t.Fatalf("unit 2 free at %v, want untouched 2", got)
	}

	// The earliest-free unit wins even when it is not the lowest index.
	s, e, unit = p.ReserveAfterIdx(0, 0, 1)
	if s != 2 || e != 3 || unit != 2 {
		t.Fatalf("reservation [%v,%v) on unit %d, want [2,3) on unit 2", s, e, unit)
	}
	if got := p.units[2].FreeAt(); got != 3 {
		t.Fatalf("unit 2 free at %v, want 3 (earliest-free unit must win)", got)
	}
}

// Three simultaneous reservations on three units take one unit each,
// and the units' frontiers add up to the time booked.
func TestPoolBusyAggregates(t *testing.T) {
	p := NewPool(3)
	var busy Time
	for i, dur := range []Time{5, 7, 9} {
		s, e, unit := p.ReserveAfterIdx(0, 0, dur)
		if s != 0 || unit != i {
			t.Fatalf("reservation %d started at %v on unit %d, want 0 on unit %d", i, s, unit, i)
		}
		busy += e - s
	}
	var frontiers Time
	for _, u := range p.units {
		frontiers += u.FreeAt()
	}
	if busy != 21 || frontiers != 21 {
		t.Fatalf("busy = %v, frontiers = %v; want 21 and 21", busy, frontiers)
	}
}

// Property: with k units, at most k reservations overlap any instant,
// and a pool never finishes later than a single timeline would.
func TestPoolNoOverbookingProperty(t *testing.T) {
	type req struct {
		At  uint16
		Dur uint8
	}
	prop := func(k uint8, reqs []req) bool {
		units := int(k%4) + 1
		p := NewPool(units)
		tl := NewTimeline()
		type iv struct{ s, e Time }
		var ivs []iv
		for _, r := range reqs {
			s, e, _ := p.ReserveAfterIdx(Time(r.At), 0, Time(r.Dur))
			if s < Time(r.At) || e != s+Time(r.Dur) {
				return false
			}
			_, te := tl.Reserve(Time(r.At), Time(r.Dur))
			if e > te {
				return false // pool slower than one unit: impossible
			}
			ivs = append(ivs, iv{s, e})
		}
		// Check the overlap bound at every interval start.
		for i, a := range ivs {
			if a.s == a.e {
				continue
			}
			overlap := 0
			for _, b := range ivs {
				if b.s <= a.s && a.s < b.e {
					overlap++
				}
			}
			if overlap > units {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
