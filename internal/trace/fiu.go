package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

// FIU "IODedup" trace import (Koller & Rangaswami, FAST'10; hosted as
// SNIA IOTTA trace set 391 — the Homes/Web-vm/Mail traces the paper
// replays). The traces are not redistributable with this repository,
// but anyone who obtains them can replay them directly through the
// simulator with this reader.
//
// Record format, one whitespace-separated line per 4 KiB block access:
//
//	[ts] [pid] [process] [block] [count] [R|W] [major] [minor] [md5]
//
// ts is in nanoseconds, block/count are in 4 KiB units, and md5 is the
// content hash of the accessed block — exactly the per-request content
// identity our deduplication study needs. Lines beginning with '#' are
// skipped. Some distributions ship the hash only for writes; reads
// with a missing hash field are accepted.

// FIUReader parses the FIU format and implements Source.
type FIUReader struct {
	sc    *bufio.Scanner
	err   error
	line  int
	base  event.Time // first timestamp, subtracted so replay starts at 0
	has   bool
	scale float64
}

// NewFIUReader wraps r. timeScale compresses (<1) or stretches (>1)
// inter-arrival gaps — the raw traces span weeks, so replays typically
// use a small factor; 0 means 1.0 (real time).
func NewFIUReader(r io.Reader, timeScale float64) *FIUReader {
	if timeScale <= 0 {
		timeScale = 1
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &FIUReader{sc: sc, scale: timeScale}
}

// Err returns the first parse error, if any.
func (fr *FIUReader) Err() error { return fr.err }

// Next implements Source.
func (fr *FIUReader) Next() (Request, bool) {
	for fr.err == nil && fr.sc.Scan() {
		fr.line++
		line := strings.TrimSpace(fr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := fr.parse(line)
		if err != nil {
			fr.err = fmt.Errorf("trace: fiu line %d: %w", fr.line, err)
			return Request{}, false
		}
		return req, true
	}
	if fr.err == nil {
		fr.err = fr.sc.Err()
	}
	return Request{}, false
}

func (fr *FIUReader) parse(line string) (Request, error) {
	f := strings.Fields(line)
	if len(f) < 8 {
		return Request{}, fmt.Errorf("want >=8 fields, got %d", len(f))
	}
	ts, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("timestamp: %w", err)
	}
	at := event.Time(ts)
	if !fr.has {
		fr.base = at
		fr.has = true
	}
	rel := at - fr.base
	if rel < 0 {
		rel = 0 // traces occasionally have small timestamp inversions
	}
	scaled := float64(rel) * fr.scale
	if !(scaled < math.MaxInt64) { // also rejects a NaN scale
		return Request{}, fmt.Errorf("timestamp %d out of range at time scale %g", ts, fr.scale)
	}
	rel = event.Time(scaled)

	block, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("block: %w", err)
	}
	count, err := strconv.Atoi(f[4])
	if err != nil || count < 1 || count > maxRequestPages {
		return Request{}, fmt.Errorf("count: %q", f[4])
	}
	r := Request{At: rel, LPN: block, Pages: count}
	switch strings.ToUpper(f[5]) {
	case "W":
		r.Op = OpWrite
	case "R":
		r.Op = OpRead
	default:
		return Request{}, fmt.Errorf("op %q", f[5])
	}
	if r.Op == OpWrite {
		if len(f) < 9 {
			return Request{}, fmt.Errorf("write without content hash")
		}
		fp, err := FoldMD5(f[8])
		if err != nil {
			return Request{}, err
		}
		// One hash per line in the published traces (count is almost
		// always 1); multi-block writes with a single hash replicate
		// it, which preserves total content volume.
		r.FPs = make([]dedup.Fingerprint, count)
		for i := range r.FPs {
			r.FPs[i] = fp
		}
	}
	return r, nil
}

// FoldMD5 folds a hex MD5 digest into the 64-bit fingerprint space —
// the content-identity mapping the FIU import uses for every write.
func FoldMD5(h string) (dedup.Fingerprint, error) {
	if len(h) < 16 {
		return 0, fmt.Errorf("content hash %q too short", h)
	}
	hi, err := strconv.ParseUint(h[:16], 16, 64)
	if err != nil {
		return 0, fmt.Errorf("content hash: %w", err)
	}
	var lo uint64
	if len(h) >= 32 {
		if lo, err = strconv.ParseUint(h[16:32], 16, 64); err != nil {
			return 0, fmt.Errorf("content hash: %w", err)
		}
	}
	// Mix the halves sequentially (not symmetrically) so structured
	// digests — identical or complementary halves — cannot cancel.
	return dedup.OfUint64(uint64(dedup.OfUint64(hi)) ^ lo), nil
}
