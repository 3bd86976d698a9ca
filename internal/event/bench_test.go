package event

import "testing"

// BenchmarkSimSteadyState measures the zero-allocation hot path: one
// hoisted ArgHandler rescheduling itself through a warm queue.
func BenchmarkSimSteadyState(b *testing.B) {
	s := NewSimOpts(SchedAuto, 0)
	var sum uint64
	h := ArgHandler(func(now Time, arg uint64) { sum += arg })
	for j := 0; j < 64; j++ {
		_ = s.AtArg(Time(j), h, 1)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AtArg(s.now+Time(i%13), h, 1)
		s.Step()
	}
	_ = sum
}

func BenchmarkTimelineReserve(b *testing.B) {
	tl := NewTimeline()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl.Reserve(Time(i), 10)
	}
}

func BenchmarkPoolReserve(b *testing.B) {
	p := NewPool(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reserve(Time(i), 10)
	}
}
