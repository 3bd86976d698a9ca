// Package event provides the simulator's virtual clock (Time) and the
// resources device models reserve: Timeline, one unit serving in FIFO
// order, and Pool, K identical units.
//
// Sim, a minimal discrete-event pump over one 4-ary min-heap, runs on no
// product path: the replay is two direct loops over Timelines and Pools.
// It remains for the event-driven reference replay that internal/sim's
// tests compare those loops against, and for the benchmark's kernel.
package event

import (
	"errors"
	"fmt"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no relation to wall-clock time.
type Time int64

// Common duration units expressed in Time ticks.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with a readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a float64 number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// ArgHandler is the body of a scheduled event: one pre-bound function
// value receives a caller-chosen argument, so a caller that hoists the
// function out of its loop allocates nothing per event.
type ArgHandler func(now Time, arg uint64)

// ErrPastEvent is returned by Sim.AtArg when an event is scheduled
// before the current simulation time.
var ErrPastEvent = errors.New("event: scheduled in the past")

// SchedKind is accepted by NewSimOpts and ignored: SchedAuto, its only
// value, names Sim's one queue.
type SchedKind uint8

const SchedAuto SchedKind = 0

// item is one scheduled event, stored by value in the heap.
type item struct {
	at  Time
	seq uint64
	fn  ArgHandler
	arg uint64
}

// before orders items by firing time, then by scheduling order, so
// same-time events fire first-in first-out.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the heap's fan-out: half a binary heap's depth.
const heapArity = 4

// Sim is a discrete-event loop. Construct it with NewSimOpts.
type Sim struct {
	now Time
	seq uint64
	q   []item // 4-ary min-heap under item.before
}

// NewSimOpts returns a simulation whose clock starts at zero. Both
// arguments are ignored; they keep the signature the benchmark's event
// kernel compiles against, and Benchmark v2 (1) deletes what is left.
func NewSimOpts(SchedKind, Time) *Sim { return &Sim{} }

// AtArg schedules fn(at, arg) to run at absolute time at. Scheduling
// before the current time returns ErrPastEvent and queues nothing.
func (s *Sim) AtArg(at Time, fn ArgHandler, arg uint64) error {
	if at < s.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	it := item{at: at, seq: s.seq, fn: fn, arg: arg}
	s.seq++
	// Sift up through a hole: parents slide down, one write places it.
	s.q = append(s.q, it)
	i := len(s.q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !it.before(&s.q[p]) {
			break
		}
		s.q[i] = s.q[p]
		i = p
	}
	s.q[i] = it
	return nil
}

// Step runs the earliest pending event, advancing the clock to its
// firing time, and reports whether there was one.
func (s *Sim) Step() bool {
	n := len(s.q) - 1
	if n < 0 {
		return false
	}
	top, last := s.q[0], s.q[n]
	s.q[n] = item{} // release the handler reference
	s.q = s.q[:n]
	if n > 0 {
		// Sift last down from the root, sliding the least child up.
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < min(c+heapArity, n); j++ {
				if s.q[j].before(&s.q[m]) {
					m = j
				}
			}
			if !s.q[m].before(&last) {
				break
			}
			s.q[i] = s.q[m]
			i = m
		}
		s.q[i] = last
	}
	s.now = top.at
	top.fn(top.at, top.arg)
	return true
}
