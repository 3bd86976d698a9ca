package cagc

// All-flash-array extension: the paper motivates CAGC for "HPC and
// enterprise storage systems" and cites both the tail-at-scale problem
// and GC-aware request steering in SSD arrays. This harness measures
// how CAGC's shorter GC translates to array-level read tails in a
// mirrored pair, with and without GC-aware steering.

import (
	"encoding/json"
	"fmt"
	"io"

	"cagc/internal/array"
	"cagc/internal/trace"
)

// ArrayResult is the volume-level outcome of one mirrored-pair replay.
type ArrayResult = array.Result

// ArrayStudyRow compares one member scheme with steering off and on.
type ArrayStudyRow struct {
	Scheme      Scheme
	PlainRead   *ArrayResult // round-robin reads
	SteeredRead *ArrayResult // GC-aware steering
	// P99ReadImprovement is 1 - steered/plain at the read p99.
	P99ReadImprovement float64
}

// ArrayStudy replays the workload through RAID-1 mirrored pairs whose
// members run scheme s, once with round-robin reads and once with
// GC-aware steering. Member GC is staggered in both configurations.
func ArrayStudy(w Workload, schemes []Scheme, p Params) ([]ArrayStudyRow, error) {
	p = p.withDefaults()
	rows := make([]ArrayStudyRow, 0, len(schemes))
	for _, s := range schemes {
		plain, err := runArray(w, s, p, false)
		if err != nil {
			return nil, fmt.Errorf("array %v plain: %w", s, err)
		}
		steered, err := runArray(w, s, p, true)
		if err != nil {
			return nil, fmt.Errorf("array %v steered: %w", s, err)
		}
		row := ArrayStudyRow{Scheme: s, PlainRead: plain, SteeredRead: steered}
		if pp := plain.ReadLatency.Percentile(0.99); pp > 0 {
			row.P99ReadImprovement = 1 - float64(steered.ReadLatency.Percentile(0.99))/float64(pp)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runArray(w Workload, s Scheme, p Params, steering bool) (*ArrayResult, error) {
	return RunArray(w, s, p, ArrayParams{Mode: "raid1", Members: 2, Stagger: true, Steer: steering})
}

// ArrayParams configures one multi-SSD volume run — the CLI surface of
// the array layer.
type ArrayParams struct {
	// Mode is "raid0" (striped) or "raid1" (mirrored; default).
	Mode string
	// Members is the number of SSDs in the volume (default 2).
	Members int
	// Stagger offsets each member's GC watermark by 1.5 blocks so the
	// members never collect in lockstep.
	Stagger bool
	// Steer enables GC-aware read steering (RAID-1 only).
	Steer bool
}

// RunArray replays the workload through a multi-SSD volume whose
// members all run scheme s, each built from p exactly as Run builds its
// device. Like the single-device path it is fully deterministic: same
// arguments, same Result. The array layer replays open loop, unbuffered,
// untraced and uncancellable, so p.QueueDepth, p.BufferPages, p.Trace and
// p.Ctx are errors rather than silently ignored.
func RunArray(w Workload, s Scheme, p Params, ap ArrayParams) (*ArrayResult, error) {
	p = p.withDefaults()
	if err := ap.check(p); err != nil {
		return nil, err
	}
	mode := array.RAID1
	if ap.Mode == "raid0" {
		mode = array.RAID0
	}
	if ap.Members == 0 {
		ap.Members = 2
	}
	member, _, err := buildRun(w, s.Options(), "greedy", p)
	if err != nil {
		return nil, err
	}
	a, err := array.New(array.Config{
		Mode:            mode,
		Members:         ap.Members,
		MemberDevice:    member.Device,
		MemberOptions:   member.Options,
		Utilization:     member.Utilization,
		GCAwareSteering: ap.Steer,
		StaggerGC:       ap.Stagger,
	})
	if err != nil {
		return nil, err
	}
	spec, err := trace.Preset(w, a.LogicalPages(), p.Requests, p.Seed)
	if err != nil {
		return nil, err
	}
	offset, err := array.Precondition(a, spec)
	if err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	src, release := trace.Ahead(gen, spec.Requests, trace.StreamOptions{})
	defer release()
	return array.Replay(a, src, offset)
}

// check refuses by name what the array layer cannot honour: it replays
// open loop, unbuffered, untraced and to the end (no context is polled),
// striped or mirrored, and steers reads only between mirrors.
func (ap ArrayParams) check(p Params) error {
	switch {
	case p.BufferPages != 0:
		return fmt.Errorf("array: BufferPages is not supported (array members have no write buffer)")
	case p.QueueDepth != 0:
		return fmt.Errorf("array: QueueDepth is not supported (the array replays open loop)")
	case p.Trace != nil:
		return fmt.Errorf("array: Trace is not supported (the array layer is untraced)")
	case p.Ctx != nil:
		return fmt.Errorf("array: Ctx is not supported (the array layer never polls a context)")
	case ap.Mode != "" && ap.Mode != "raid0" && ap.Mode != "raid1":
		return fmt.Errorf("array: unknown mode %q (want raid0 or raid1)", ap.Mode)
	case ap.Steer && ap.Mode == "raid0":
		return fmt.Errorf("array: GC-aware steering needs raid1 (reads have no replica choice in raid0)")
	}
	return nil
}

// ArraySummary is the JSON-stable view of an ArrayResult.
type ArraySummary struct {
	Mode       string  `json:"mode"`
	Scheme     string  `json:"scheme"`
	Members    int     `json:"members"`
	Requests   uint64  `json:"requests"`
	DurationMs float64 `json:"duration_ms"`

	Latency      LatencySummary `json:"latency"`
	ReadLatency  LatencySummary `json:"read_latency"`
	WriteLatency LatencySummary `json:"write_latency"`

	SteeredReads uint64 `json:"steered_reads"`
}

// SummarizeArray flattens an ArrayResult.
func SummarizeArray(r *ArrayResult) ArraySummary {
	return ArraySummary{
		Mode:         r.Mode,
		Scheme:       r.Scheme,
		Members:      r.Members,
		Requests:     r.Requests,
		DurationMs:   r.Duration.Millis(),
		Latency:      latencySummary(&r.Latency),
		ReadLatency:  latencySummary(&r.ReadLatency),
		WriteLatency: latencySummary(&r.WriteLatency),
		SteeredReads: r.SteeredReads,
	}
}

// WriteArrayJSON emits the array summary as indented JSON.
func WriteArrayJSON(w io.Writer, r *ArrayResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SummarizeArray(r))
}

// FprintArray renders the human-readable array report.
func FprintArray(w io.Writer, r *ArrayResult) {
	fmt.Fprintf(w, "array: %s x %d members, scheme %s\n", r.Mode, r.Members, r.Scheme)
	fmt.Fprintf(w, "requests %d  duration %.1f ms  steered reads %d\n\n",
		r.Requests, r.Duration.Millis(), r.SteeredReads)
	lat := func(name string, s LatencySummary) {
		fmt.Fprintf(w, "%-8s n=%-9d mean %-9.1f p50 %-9.1f p99 %-9.1f p99.9 %-9.1f max %.1f (us)\n",
			name, s.Count, s.MeanUs, s.P50Us, s.P99Us, s.P999Us, s.MaxUs)
	}
	sum := SummarizeArray(r)
	lat("latency", sum.Latency)
	lat("read", sum.ReadLatency)
	lat("write", sum.WriteLatency)
}
