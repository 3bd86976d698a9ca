// Package trace models content-annotated block I/O workloads: the
// request format, binary and text codecs, and synthetic generators
// calibrated to the FIU SyLab traces (Homes, Web-vm, Mail) the paper
// replays.
//
// Like the FIU IODedup traces, every written page carries a content
// fingerprint, which is what makes deduplication studies possible with
// trace-driven simulation. The real traces are not redistributable, so
// the generators reproduce the statistics the paper's results depend
// on: write ratio, dedup ratio, request-size distribution (Table II),
// address-overwrite locality, and the reference-count/invalidation
// correlation (Figure 6).
package trace

import (
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

// Op is the request kind.
type Op uint8

const (
	// OpRead reads previously written pages.
	OpRead Op = iota
	// OpWrite writes pages with the attached content fingerprints.
	OpWrite
	// OpTrim discards a logical range (file delete). Trimming drops
	// one reference per mapped page.
	OpTrim
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpTrim:
		return "T"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is one host I/O. Multi-page requests cover the contiguous
// logical range [LPN, LPN+Pages).
type Request struct {
	At    event.Time // arrival time
	Op    Op
	LPN   uint64 // first logical page
	Pages int    // request length in pages, >= 1
	// FPs holds one fingerprint per page for writes; nil otherwise.
	FPs []dedup.Fingerprint
}

// Validate checks structural consistency.
func (r Request) Validate() error {
	if r.Pages < 1 {
		return fmt.Errorf("trace: request with %d pages", r.Pages)
	}
	if r.Op == OpWrite && len(r.FPs) != r.Pages {
		return fmt.Errorf("trace: write with %d pages but %d fingerprints", r.Pages, len(r.FPs))
	}
	if r.Op != OpWrite && len(r.FPs) != 0 {
		return fmt.Errorf("trace: %v with fingerprints", r.Op)
	}
	if r.At < 0 {
		return fmt.Errorf("trace: negative arrival %d", r.At)
	}
	return nil
}

// Source is a stream of requests, in nondecreasing arrival order.
//
// A returned Request's FPs is valid only until the next call to Next
// on the same source, the rule of bufio.Scanner.Bytes: every generator
// and decoder fills one recycled buffer per source, so a replay
// allocates nothing per request. A consumer that keeps a request past
// its next Next copies the fingerprints first (Collect, Merger and
// Stream do).
type Source interface {
	// Next returns the next request, or ok=false at end of stream.
	Next() (Request, bool)
}

// ErrSource is the extension interface for sources that can fail
// mid-stream (file readers, decoders, and anything wrapping them).
// After Next returns ok=false, Err distinguishes a clean end (nil)
// from a decode failure; consumers that ignore it silently truncate
// corrupt traces, which is exactly the bug this interface exists to
// prevent.
type ErrSource interface {
	Source
	// Err reports the terminal error after the stream ends, or nil if
	// the stream ended cleanly. Before end of stream its value is
	// unspecified.
	Err() error
}

// SourceErr returns src's terminal error if it is an ErrSource, nil
// otherwise. Call it whenever Next returns ok=false on a source of
// unknown concrete type.
func SourceErr(src Source) error {
	if es, ok := src.(ErrSource); ok {
		return es.Err()
	}
	return nil
}

// fpScratch is a source's one fingerprint buffer. It grows to the
// largest request the source has produced and is never shrunk.
type fpScratch []dedup.Fingerprint

// take returns the buffer resized to n fingerprints, capacity-clipped
// so an append by the caller cannot write into the buffer's tail.
func (b *fpScratch) take(n int) []dedup.Fingerprint {
	if cap(*b) < n {
		*b = make(fpScratch, n)
	}
	return (*b)[:n:n]
}
