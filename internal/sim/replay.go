package sim

// The measured replay: two direct loops over the trace source, one per
// issue mode. Every simulated resource (dies, channels, hash engines)
// is an event.Timeline reservation made inside serveRequest, so the
// replay itself has nothing to schedule — it only decides which request
// is served next and at what time.
//
// Open loop serves requests in trace order at their own timestamps,
// holding one request of look-ahead: the idle-GC window decision reads
// the gap to the next arrival and nothing further.
//
// Closed loop keeps QueueDepth completions outstanding in a min-heap of
// issue tokens. The order contract (pinned against an event-queue
// reference by TestReplayMatchesEventDrivenReference):
//   - a token's key is (max(done, clock), push sequence), where clock is
//     the key time of the last token popped (a fully clipped request can
//     complete at 0, before the clock) and ties pop first-pushed-first;
//   - the popped token's raw completion — not its clamped key — is the
//     issue time of the next trace request;
//   - QueueDepth initial tokens sit at the replay offset and carry it;
//   - a token that finds the trace exhausted dies, and the rest drain.

import (
	"context"
	"fmt"

	"cagc/internal/event"
	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// replayState is the mutable state of one Replay call.
type replayState struct {
	r          *Runner
	src        trace.Source
	offset     event.Time
	res        *Result
	idleTarget float64
	ctx        context.Context // nil unless the run is deadline-bounded

	firstArrival event.Time // -1 until the first request is served
	lastDone     event.Time

	// Counter baselines taken when the replay began; the Result reports
	// the measured phase only.
	statsBefore ftl.Stats
	refBefore   [4]uint64
}

// next pulls the following request from the source, shifting its
// arrival by the replay offset. It reports false at the end of the
// trace; a decode failure is an error, never a shorter workload —
// ignoring the reader's error would silently replay a truncated trace
// as if it were the whole one.
func (st *replayState) next() (trace.Request, bool, error) {
	req, ok := st.src.Next()
	if !ok {
		if err := trace.SourceErr(st.src); err != nil {
			return req, false, fmt.Errorf("sim: replay: %w", err)
		}
		return req, false, nil
	}
	req.At += st.offset
	return req, true, nil
}

// openLoop serves every request at its trace timestamp (shifted by the
// replay offset). Per request: serve, pull the look-ahead, make the
// idle-GC window decision against the next arrival, then account —
// stats read GC state that idle GC may have advanced, and record reads
// no fingerprints, which the pull has recycled.
func (st *replayState) openLoop() error {
	next, more, err := st.next()
	if err != nil {
		return err
	}
	for more {
		req := next
		done, err := st.r.serveRequest(req)
		if err != nil {
			return fmt.Errorf("sim: replay: %w", err)
		}
		if next, more, err = st.next(); err != nil {
			return err
		}
		// Gaps to the next arrival longer than idleGCGap are host idle
		// periods: background GC reclaims toward idleTarget, staying
		// idleGCMargin clear of the arrival.
		if more && next.At-req.At > idleGCGap {
			if err := st.r.f.IdleGC(req.At, next.At-idleGCMargin, st.idleTarget); err != nil {
				return fmt.Errorf("sim: idle gc: %w", err)
			}
		}
		if err := st.record(req, done); err != nil {
			return err
		}
	}
	return nil
}

// token is one closed-loop issue slot: the completion it carries (done)
// becomes the next request's issue time once the token is the minimum
// of the heap under (at, seq).
type token struct {
	at   event.Time // max(done, clock when pushed)
	seq  uint64     // push order; FIFO among equal at
	done event.Time
}

func (a token) before(b token) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftDown restores the min-heap property of h after h[0] changed.
func siftDown(h []token) {
	if len(h) == 0 {
		return
	}
	t := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(t) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = t
}

// closedLoop ignores trace timestamps and keeps qd requests
// outstanding: each request issues at the completion of the oldest
// outstanding one. Serving it yields a new completion, which replaces
// the token at the root — the heap never grows past qd.
func (st *replayState) closedLoop(qd int) error {
	h := make([]token, qd)
	for i := range h {
		// Equal keys in ascending seq: already a heap.
		h[i] = token{at: st.offset, seq: uint64(i), done: st.offset}
	}
	for seq := uint64(qd); len(h) > 0; seq++ {
		req, ok, err := st.next()
		if err != nil {
			return err
		}
		if !ok {
			// Trace exhausted: the token dies and the heap drains.
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			siftDown(h)
			continue
		}
		clock := h[0].at
		req.At = h[0].done
		done, err := st.r.serveRequest(req)
		if err != nil {
			return fmt.Errorf("sim: replay: %w", err)
		}
		h[0] = token{at: max(done, clock), seq: seq, done: done}
		siftDown(h)
		if err := st.record(req, done); err != nil {
			return err
		}
	}
	return nil
}

// record accounts one served request into the Result. The only error
// is the run's context being done (polled every cancelPollEvery
// requests), which ends the replay at this request.
func (st *replayState) record(req trace.Request, done event.Time) error {
	res := st.res
	if st.firstArrival < 0 {
		st.firstArrival = req.At
	}
	if done > st.lastDone {
		st.lastDone = done
	}
	lat := done - req.At
	if lat < 0 {
		lat = 0 // zero-page (fully clipped) requests
	}
	res.Latency.Record(lat)
	if req.At < st.r.f.GCBusyUntil() {
		res.GCLatency.Record(lat)
		res.GCRequests++
	}
	switch req.Op {
	case trace.OpRead:
		res.ReadLatency.Record(lat)
	case trace.OpWrite:
		res.WriteLatency.Record(lat)
	}
	// Tenant attribution by first logical page. The range count is the
	// scenario's tenant count (single digits), so a linear scan beats
	// any index.
	for i := range res.Tenants {
		t := &res.Tenants[i]
		if lpn := req.LPN; lpn >= t.Base && lpn-t.Base < t.Pages {
			t.Requests++
			t.Latency.Record(lat)
			if t.SLO > 0 && lat > t.SLO {
				t.Violations++
			}
			break
		}
	}
	res.Requests++
	if st.ctx != nil && res.Requests%cancelPollEvery == 0 {
		return canceled(st.ctx, "replay")
	}
	return nil
}

// Replay runs the measured trace. Arrival times in src are shifted by
// offset (the precondition settle time). The returned Result covers
// only the measured phase.
//
// Open-loop mode (QueueDepth == 0): requests arrive at their trace
// timestamps; between bursts — whenever the next arrival is more than
// idleGCGap away — background GC runs, exactly as firmware exploits
// idle periods; the watermark GC inside the FTL remains the
// under-pressure fallback.
//
// Closed-loop mode (QueueDepth > 0): trace timestamps are ignored; a
// window of QueueDepth requests is kept outstanding, each new request
// issuing at the completion time of the oldest outstanding one. Idle
// GC never runs (a saturating host has no idle periods).
func (r *Runner) Replay(src trace.Source, offset event.Time, workload string) (*Result, error) {
	st, err := r.beginReplay(src, offset, workload)
	if err != nil {
		return nil, err
	}
	if qd := r.cfg.QueueDepth; qd > 0 {
		err = st.closedLoop(qd)
	} else {
		err = st.openLoop()
	}
	if err != nil {
		return nil, err
	}
	return st.finish()
}

// beginReplay opens the measured phase: an empty Result and the
// counter baselines its deltas are taken against.
func (r *Runner) beginReplay(src trace.Source, offset event.Time, workload string) (*replayState, error) {
	// A run whose deadline already passed fails before serving anything.
	if err := canceled(r.cfg.Ctx, "replay"); err != nil {
		return nil, err
	}
	res := &Result{
		Scheme:   r.cfg.Options.SchemeName(),
		Workload: workload,
		Policy:   r.cfg.Options.Policy.Name(),
	}
	if len(r.tenants) > 0 {
		res.Tenants = make([]TenantResult, len(r.tenants))
		for i, t := range r.tenants {
			res.Tenants[i] = TenantResult{Name: t.Name, Base: t.Base, Pages: t.Pages, SLO: t.SLO}
		}
	}
	return &replayState{
		r:            r,
		src:          src,
		offset:       offset,
		res:          res,
		idleTarget:   r.f.Options().Watermark + idleGCHeadroom,
		ctx:          r.cfg.Ctx,
		firstArrival: -1,
		statsBefore:  r.f.Stats(),
		refBefore:    r.f.RefDist.Counts(),
	}, nil
}

// finish closes the measured phase: drains the write buffer, takes the
// counter deltas and reads the device's end state.
func (st *replayState) finish() (*Result, error) {
	r, res := st.r, st.res
	// Drain the write buffer so every accepted write is durable and
	// accounted before the stats snapshot.
	if r.buf != nil {
		done, err := r.buf.Flush(st.lastDone)
		if err != nil {
			return nil, fmt.Errorf("sim: draining buffer: %w", err)
		}
		if done > st.lastDone {
			st.lastDone = done
		}
	}

	res.FTL = subStats(r.f.Stats(), st.statsBefore)
	refAfter := r.f.RefDist.Counts()
	for i := range res.RefDist {
		res.RefDist[i] = refAfter[i] - st.refBefore[i]
	}
	if st.firstArrival < 0 {
		st.firstArrival = 0
	}
	res.Duration = st.lastDone - st.firstArrival
	res.EraseSpread = r.dev.EraseSpread()
	res.FreeFraction = r.f.FreeBlockFraction()
	res.Regions = r.f.RegionStats()
	return res, nil
}
