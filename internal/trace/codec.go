package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"cagc/internal/dedup"
	"cagc/internal/event"
)

// magic identifies the binary trace container, version 1.
var magic = [8]byte{'C', 'A', 'G', 'C', 'T', 'R', '0', '1'}

// ErrBadMagic indicates the input is not a binary CAGC trace.
var ErrBadMagic = errors.New("trace: bad magic (not a CAGC binary trace)")

// maxRequestPages bounds one decoded request's length. Decoders
// allocate a fingerprint per written page, so an implausible count in a
// corrupt record must fail the stream, not the allocator.
const maxRequestPages = 1 << 20

// Writer streams requests into the compact binary trace format:
// delta-encoded arrival times and uvarint fields, one fingerprint per
// written page. Close/Flush is the caller's responsibility via Flush.
type Writer struct {
	w      *bufio.Writer
	lastAt event.Time
	buf    [binary.MaxVarintLen64]byte
	n      int
}

// NewWriter starts a binary trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func (tw *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(tw.buf[:], v)
	_, err := tw.w.Write(tw.buf[:n])
	return err
}

// Write appends one request.
func (tw *Writer) Write(r Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if r.At < tw.lastAt {
		return fmt.Errorf("trace: arrival times must be nondecreasing (%v after %v)", r.At, tw.lastAt)
	}
	if err := tw.uvarint(uint64(r.At - tw.lastAt)); err != nil {
		return err
	}
	tw.lastAt = r.At
	if err := tw.w.WriteByte(byte(r.Op)); err != nil {
		return err
	}
	if err := tw.uvarint(r.LPN); err != nil {
		return err
	}
	if err := tw.uvarint(uint64(r.Pages)); err != nil {
		return err
	}
	if r.Op == OpWrite {
		for _, fp := range r.FPs {
			if err := tw.uvarint(uint64(fp)); err != nil {
				return err
			}
		}
	}
	tw.n++
	return nil
}

// Count returns the number of requests written.
func (tw *Writer) Count() int { return tw.n }

// Flush drains buffered output to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader streams requests back out of the binary format. It implements
// Source; decoding errors are reported through Err after Next returns
// false.
type Reader struct {
	r      *bufio.Reader
	lastAt event.Time
	err    error
	done   bool
}

// NewReader validates the header and positions at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if got != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Err returns the first decoding error, if any. io.EOF at a record
// boundary is a clean end and is not reported.
func (tr *Reader) Err() error { return tr.err }

// Next implements Source.
func (tr *Reader) Next() (Request, bool) {
	if tr.done {
		return Request{}, false
	}
	fail := func(err error) (Request, bool) {
		tr.done = true
		if err != io.EOF {
			tr.err = err
		}
		return Request{}, false
	}
	delta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return fail(err) // EOF here is a clean end of trace
	}
	if delta > uint64(math.MaxInt64-tr.lastAt) {
		return fail(fmt.Errorf("trace: arrival time overflows after %v", tr.lastAt))
	}
	var r Request
	tr.lastAt += event.Time(delta)
	r.At = tr.lastAt
	op, err := tr.r.ReadByte()
	if err != nil {
		return fail(fmt.Errorf("trace: truncated record: %w", err))
	}
	r.Op = Op(op)
	if r.Op > OpTrim {
		return fail(fmt.Errorf("trace: unknown op %d", op))
	}
	if r.LPN, err = binary.ReadUvarint(tr.r); err != nil {
		return fail(fmt.Errorf("trace: truncated record: %w", err))
	}
	pages, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return fail(fmt.Errorf("trace: truncated record: %w", err))
	}
	if pages == 0 || pages > maxRequestPages {
		return fail(fmt.Errorf("trace: implausible page count %d", pages))
	}
	r.Pages = int(pages)
	if r.Op == OpWrite {
		r.FPs = make([]dedup.Fingerprint, r.Pages)
		for i := range r.FPs {
			v, err := binary.ReadUvarint(tr.r)
			if err != nil {
				return fail(fmt.Errorf("trace: truncated fingerprints: %w", err))
			}
			r.FPs[i] = dedup.Fingerprint(v)
		}
	}
	return r, true
}

// WriteText renders requests in the human-readable one-line-per-request
// format: "<at_ns> <R|W|T> <lpn> <pages> [fp,...]".
func WriteText(w io.Writer, src Source) (int, error) {
	bw := bufio.NewWriter(w)
	n := 0
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if err := r.Validate(); err != nil {
			return n, err
		}
		if _, err := fmt.Fprintf(bw, "%d %s %d %d", int64(r.At), r.Op, r.LPN, r.Pages); err != nil {
			return n, err
		}
		if r.Op == OpWrite {
			bw.WriteByte(' ')
			for i, fp := range r.FPs {
				if i > 0 {
					bw.WriteByte(',')
				}
				fmt.Fprintf(bw, "%x", uint64(fp))
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// TextReader parses the text format. It implements Source.
type TextReader struct {
	sc   *bufio.Scanner
	err  error
	line int
}

// NewTextReader wraps r for text-format parsing.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &TextReader{sc: sc}
}

// Err returns the first parse error.
func (tr *TextReader) Err() error { return tr.err }

// Next implements Source.
func (tr *TextReader) Next() (Request, bool) {
	for tr.err == nil && tr.sc.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseTextLine(line)
		if err != nil {
			tr.err = fmt.Errorf("trace: line %d: %w", tr.line, err)
			return Request{}, false
		}
		return r, true
	}
	if tr.err == nil {
		tr.err = tr.sc.Err()
	}
	return Request{}, false
}

func parseTextLine(line string) (Request, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Request{}, fmt.Errorf("want >=4 fields, got %d", len(f))
	}
	var r Request
	at, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("arrival: %w", err)
	}
	r.At = event.Time(at)
	switch f[1] {
	case "R":
		r.Op = OpRead
	case "W":
		r.Op = OpWrite
	case "T":
		r.Op = OpTrim
	default:
		return Request{}, fmt.Errorf("unknown op %q", f[1])
	}
	if r.LPN, err = strconv.ParseUint(f[2], 10, 64); err != nil {
		return Request{}, fmt.Errorf("lpn: %w", err)
	}
	pages, err := strconv.Atoi(f[3])
	if err != nil || pages < 1 {
		return Request{}, fmt.Errorf("pages: %q", f[3])
	}
	r.Pages = pages
	if r.Op == OpWrite {
		if len(f) != 5 {
			return Request{}, fmt.Errorf("write needs a fingerprint list")
		}
		parts := strings.Split(f[4], ",")
		if len(parts) != pages {
			return Request{}, fmt.Errorf("%d fingerprints for %d pages", len(parts), pages)
		}
		r.FPs = make([]dedup.Fingerprint, pages)
		for i, p := range parts {
			v, err := strconv.ParseUint(p, 16, 64)
			if err != nil {
				return Request{}, fmt.Errorf("fingerprint %d: %w", i, err)
			}
			r.FPs[i] = dedup.Fingerprint(v)
		}
	}
	return r, r.Validate()
}
