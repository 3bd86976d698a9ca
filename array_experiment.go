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
	"cagc/internal/flash"
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
// members all run scheme s. Like the single-device path it is fully
// deterministic: same arguments, same Result.
func RunArray(w Workload, s Scheme, p Params, ap ArrayParams) (*ArrayResult, error) {
	p = p.withDefaults()
	mode := array.RAID1
	switch ap.Mode {
	case "", "raid1":
	case "raid0":
		mode = array.RAID0
	default:
		return nil, fmt.Errorf("array: unknown mode %q (want raid0 or raid1)", ap.Mode)
	}
	if ap.Members == 0 {
		ap.Members = 2
	}
	if ap.Steer && mode != array.RAID1 {
		return nil, fmt.Errorf("array: GC-aware steering needs raid1 (reads have no replica choice in raid0)")
	}
	cfg := array.Config{
		Mode:            mode,
		Members:         ap.Members,
		MemberDevice:    flash.ScaledConfig(p.DeviceBytes),
		MemberOptions:   s.Options(),
		Utilization:     p.Utilization,
		GCAwareSteering: ap.Steer,
		StaggerGC:       ap.Stagger,
	}
	a, err := array.New(cfg)
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
	lat := func(h interface {
		Count() uint64
		Mean() float64
		Percentile(float64) Time
		Max() Time
	}) LatencySummary {
		return LatencySummary{
			Count:  h.Count(),
			MeanUs: h.Mean() / 1000,
			P50Us:  h.Percentile(0.50).Micros(),
			P90Us:  h.Percentile(0.90).Micros(),
			P99Us:  h.Percentile(0.99).Micros(),
			P999Us: h.Percentile(0.999).Micros(),
			MaxUs:  h.Max().Micros(),
		}
	}
	return ArraySummary{
		Mode:         r.Mode,
		Scheme:       r.Scheme,
		Members:      r.Members,
		Requests:     r.Requests,
		DurationMs:   r.Duration.Millis(),
		Latency:      lat(&r.Latency),
		ReadLatency:  lat(&r.ReadLatency),
		WriteLatency: lat(&r.WriteLatency),
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
