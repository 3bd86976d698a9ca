package obs

import (
	"fmt"
	"io"
	"sort"

	"cagc/internal/event"
	"cagc/internal/metrics"
)

// Summary is the aggregate view of one recorded trace: request latency
// percentiles, per-phase GC time attribution (including the
// fingerprint/erase overlap that CAGC's hiding claim rests on), per-die
// utilization, and the auxiliary-track tallies.
type Summary struct {
	// Events counts the simulated-time events. The wall-clock tracks
	// (sched, fleet, serve, ingest) are left out: how many ingest stalls
	// a run records depends on the host, and the report must not.
	Events  int
	Dropped uint64
	// Horizon is the latest simulated event end time — the traced
	// window's extent. Wall-clock tracks (sched, fleet, serve, ingest)
	// keep a different time base and never extend it.
	Horizon event.Time

	Requests uint64
	Reads    uint64
	Writes   uint64
	Trims    uint64

	Latency      metrics.Histogram // all requests
	ReadLatency  metrics.Histogram
	WriteLatency metrics.Histogram

	GC   GCAttribution
	Dies []DieUsage

	HashBusy     event.Time // all hash-engine busy time (inline + GC)
	BufHits      uint64
	BufFlushes   uint64
	MapStalls    uint64
	MapStallTime event.Time
	IndexPeak    uint64 // high-water mark of the dedup-index live counter
}

// GCAttribution splits garbage-collection work into phases. Times are
// summed span durations; the overlap fields use interval unions so
// concurrent spans are not double counted.
type GCAttribution struct {
	Collects uint64 // victim collections completed
	Selects  uint64 // victim-select decisions

	MigrateRead    event.Time // die time reading valid pages out
	MigrateProgram event.Time // die time programming relocated pages
	Fingerprint    event.Time // hash-engine time on GC-path fingerprints
	Erase          event.Time // die time erasing victim blocks

	DupDropped uint64 // migrated pages dropped as duplicates
	Publishes  uint64 // first-copy fingerprints published to the index
	Promotions uint64
	Demotions  uint64

	IdleWindows uint64
	WearSwaps   uint64

	// HashUnion is |union of GC fingerprint intervals| and OverlapTime
	// is |that union ∩ union of erase intervals|: the share of hashing
	// the scheme actually hid under erases.
	HashUnion   event.Time
	OverlapTime event.Time
}

// OverlapRatio returns OverlapTime / HashUnion — the fraction of GC
// fingerprint time hidden under flash erases — or 0 when no GC-path
// hashing was traced.
func (g *GCAttribution) OverlapRatio() float64 {
	if g.HashUnion == 0 {
		return 0
	}
	return float64(g.OverlapTime) / float64(g.HashUnion)
}

// DieUsage is one die's share of the traced window.
type DieUsage struct {
	Die  int
	Busy event.Time
}

// ival is a half-open interval used by the overlap math.
type ival struct{ lo, hi event.Time }

// unionize sorts and merges intervals in place, returning the merged
// list and its total length.
func unionize(ivs []ival) ([]ival, event.Time) {
	if len(ivs) == 0 {
		return ivs, 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	var total event.Time
	for _, iv := range out {
		total += iv.hi - iv.lo
	}
	return out, total
}

// intersect returns the total overlap between two merged interval
// lists.
func intersect(a, b []ival) event.Time {
	var total event.Time
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].lo, a[i].hi
		if b[j].lo > lo {
			lo = b[j].lo
		}
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}

// Summarize aggregates the recorder's events. Parent attribution uses
// the contiguous sequence numbering of Events(): a die or hash span
// whose parent is a gc.collect span is GC work, everything else is
// foreground.
func Summarize(r *Recorder) *Summary {
	evs := r.Events()
	s := &Summary{Dropped: r.Dropped()}
	if len(evs) == 0 {
		return s
	}
	lo := evs[0].Seq
	underGC := func(parent uint64) bool {
		if parent < lo || parent > evs[len(evs)-1].Seq {
			return false
		}
		return evs[parent-lo].Kind == KGCCollect
	}
	var hashIvs, eraseIvs []ival
	for i := range evs {
		ev := &evs[i]
		if !ev.Track.wallClock() {
			s.Events++
			s.Horizon = max(s.Horizon, ev.End)
		}
		dur := ev.End - ev.Start
		switch ev.Kind {
		case KReqRead, KReqWrite, KReqTrim:
			s.Requests++
			s.Latency.Record(dur)
			switch ev.Kind {
			case KReqRead:
				s.Reads++
				s.ReadLatency.Record(dur)
			case KReqWrite:
				s.Writes++
				s.WriteLatency.Record(dur)
			default:
				s.Trims++
			}
		case KDieRead, KDieProgram, KDieErase, KDieMeta:
			die, _ := IsDieTrack(ev.Track)
			for len(s.Dies) <= die {
				s.Dies = append(s.Dies, DieUsage{Die: len(s.Dies)})
			}
			d := &s.Dies[die]
			d.Busy += dur
			gc := underGC(ev.Parent)
			switch ev.Kind {
			case KDieRead:
				if gc {
					s.GC.MigrateRead += dur
				}
			case KDieProgram:
				if gc {
					s.GC.MigrateProgram += dur
				}
			case KDieErase:
				s.GC.Erase += dur
				eraseIvs = append(eraseIvs, ival{ev.Start, ev.End})
			}
		case KHashInline:
			s.HashBusy += dur
		case KHashGC:
			s.HashBusy += dur
			s.GC.Fingerprint += dur
			hashIvs = append(hashIvs, ival{ev.Start, ev.End})
		case KGCCollect:
			s.GC.Collects++
		case KGCSelect:
			s.GC.Selects++
		case KGCDedupHit:
			s.GC.DupDropped++
		case KGCPublish:
			s.GC.Publishes++
		case KPromote:
			s.GC.Promotions++
		case KDemote:
			s.GC.Demotions++
		case KIdleGC:
			s.GC.IdleWindows++
		case KWearLevel:
			s.GC.WearSwaps++
		case KMapStall:
			s.MapStalls++
			s.MapStallTime += dur
		case KBufHit:
			s.BufHits++
		case KBufFlush:
			s.BufFlushes++
		case KIndexLive:
			if ev.Arg > s.IndexPeak {
				s.IndexPeak = ev.Arg
			}
		}
	}
	hu, hTotal := unionize(hashIvs)
	eu, _ := unionize(eraseIvs)
	s.GC.HashUnion = hTotal
	s.GC.OverlapTime = intersect(hu, eu)
	return s
}

// fdur renders a virtual duration with a human unit.
func fdur(t event.Time) string {
	switch {
	case t >= 1e9:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	case t >= 1e6:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.1fus", float64(t)/1e3)
	}
}

// pcts renders the standard percentile line of a histogram.
func pcts(h *metrics.Histogram) string {
	if h.Count() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p50=%s p95=%s p99=%s p99.9=%s max=%s",
		fdur(h.Percentile(0.50)), fdur(h.Percentile(0.95)),
		fdur(h.Percentile(0.99)), fdur(h.Percentile(0.999)), fdur(h.Max()))
}

// WriteText renders the summary as the compact text report the CLIs
// print with -trace-summary.
func (s *Summary) WriteText(w io.Writer, label string) error {
	p := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return
	}
	if err := p("trace summary [%s]: %d events (%d dropped), horizon %s\n",
		label, s.Events, s.Dropped, fdur(s.Horizon)); err != nil {
		return err
	}
	if err := p("  requests: %d (%d reads / %d writes / %d trims)\n",
		s.Requests, s.Reads, s.Writes, s.Trims); err != nil {
		return err
	}
	if err := p("    latency: %s\n", pcts(&s.Latency)); err != nil {
		return err
	}
	if s.Reads > 0 {
		if err := p("    reads:   %s\n", pcts(&s.ReadLatency)); err != nil {
			return err
		}
	}
	if s.Writes > 0 {
		if err := p("    writes:  %s\n", pcts(&s.WriteLatency)); err != nil {
			return err
		}
	}
	g := &s.GC
	if err := p("  gc: %d collects (%d selects), %d dup-dropped, %d published, %d promoted, %d demoted\n",
		g.Collects, g.Selects, g.DupDropped, g.Publishes, g.Promotions, g.Demotions); err != nil {
		return err
	}
	if err := p("    phase time: migrate-read %s, migrate-program %s, fingerprint %s, erase %s\n",
		fdur(g.MigrateRead), fdur(g.MigrateProgram), fdur(g.Fingerprint), fdur(g.Erase)); err != nil {
		return err
	}
	if err := p("    fingerprint/erase overlap: %.3f (%s of %s hashing hidden under erase)\n",
		g.OverlapRatio(), fdur(g.OverlapTime), fdur(g.HashUnion)); err != nil {
		return err
	}
	if g.IdleWindows > 0 || g.WearSwaps > 0 {
		if err := p("    idle-gc windows: %d, wear swaps: %d\n",
			g.IdleWindows, g.WearSwaps); err != nil {
			return err
		}
	}
	if len(s.Dies) > 0 && s.Horizon > 0 {
		var busy event.Time
		minI, maxI := 0, 0
		for i := range s.Dies {
			busy += s.Dies[i].Busy
			if s.Dies[i].Busy < s.Dies[minI].Busy {
				minI = i
			}
			if s.Dies[i].Busy > s.Dies[maxI].Busy {
				maxI = i
			}
		}
		avg := float64(busy) / float64(len(s.Dies)) / float64(s.Horizon)
		if err := p("  dies: %d, busy avg %.1f%% (min die %d %.1f%%, max die %d %.1f%%)\n",
			len(s.Dies), 100*avg,
			s.Dies[minI].Die, 100*float64(s.Dies[minI].Busy)/float64(s.Horizon),
			s.Dies[maxI].Die, 100*float64(s.Dies[maxI].Busy)/float64(s.Horizon)); err != nil {
			return err
		}
	}
	return p("  buffer: %d hits, %d flushes; map stalls: %d (%s); hash busy %s; index peak %d\n",
		s.BufHits, s.BufFlushes, s.MapStalls, fdur(s.MapStallTime),
		fdur(s.HashBusy), s.IndexPeak)
}
