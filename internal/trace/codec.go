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

// writeBlock is the size of the blocks a Writer hands to its
// underlying writer.
const writeBlock = 64 << 10

// Writer streams requests into the compact binary trace format:
// delta-encoded arrival times and uvarint fields, one fingerprint per
// written page. Each request is appended to one reusable buffer, and
// every whole 64 KiB block of it goes to the underlying writer as soon
// as it fills; Flush writes the rest. The first write error sticks:
// every later Write and Flush returns it, so a failed trace is never a
// silently short one.
type Writer struct {
	w      io.Writer
	buf    []byte
	lastAt event.Time
	n      int
	err    error
}

// NewWriter starts a binary trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	// Room for a block and the record that crosses its end.
	buf := make([]byte, 0, 2*writeBlock)
	return &Writer{w: w, buf: append(buf, magic[:]...)}, nil
}

// Write appends one request.
func (tw *Writer) Write(r Request) error {
	if tw.err != nil {
		return tw.err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if r.At < tw.lastAt {
		return fmt.Errorf("trace: arrival times must be nondecreasing (%v after %v)", r.At, tw.lastAt)
	}
	b := binary.AppendUvarint(tw.buf, uint64(r.At-tw.lastAt))
	b = append(b, byte(r.Op))
	b = binary.AppendUvarint(b, r.LPN)
	b = binary.AppendUvarint(b, uint64(r.Pages))
	if r.Op == OpWrite {
		for _, fp := range r.FPs {
			b = binary.AppendUvarint(b, uint64(fp))
		}
	}
	tw.lastAt = r.At
	tw.n++
	if len(b) >= writeBlock {
		whole := len(b) - len(b)%writeBlock
		tw.write(b[:whole])
		b = b[:copy(b, b[whole:])]
	}
	tw.buf = b
	return tw.err
}

// write hands p to the underlying writer, keeping the first error; a
// short write without one is io.ErrShortWrite.
func (tw *Writer) write(p []byte) {
	n, err := tw.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	tw.err = err
}

// Flush drains buffered output to the underlying writer.
func (tw *Writer) Flush() error {
	if tw.err == nil && len(tw.buf) > 0 {
		tw.write(tw.buf)
		tw.buf = tw.buf[:0]
	}
	return tw.err
}

// WriteAll encodes every request of src in the binary format on w, the
// binary twin of WriteText, and returns how many it wrote. A decode
// error of src is the caller's to check with SourceErr.
func WriteAll(w io.Writer, src Source) (int, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	for r, ok := src.Next(); ok; r, ok = src.Next() {
		if err := tw.Write(r); err != nil {
			return tw.n, err
		}
	}
	return tw.n, tw.Flush()
}

// Reader streams requests back out of the binary format. It implements
// Source; decoding errors are reported through Err after Next returns
// false.
type Reader struct {
	r      *bufio.Reader
	lastAt event.Time
	fps    fpScratch
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

// uvarint decodes one uvarint in place from the bytes already buffered.
// A uvarint the buffer does not hold whole (it straddles the buffer's
// end) or that overflows goes to binary.ReadUvarint instead, which
// re-reads it from the same position, so the reads of the underlying
// reader and every error are exactly binary.ReadUvarint's.
func (tr *Reader) uvarint() (uint64, error) {
	buf, _ := tr.r.Peek(tr.r.Buffered())
	if v, n := binary.Uvarint(buf); n > 0 {
		tr.r.Discard(n)
		return v, nil
	}
	return binary.ReadUvarint(tr.r)
}

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
	delta, err := tr.uvarint()
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
	if r.LPN, err = tr.uvarint(); err != nil {
		return fail(fmt.Errorf("trace: truncated record: %w", err))
	}
	pages, err := tr.uvarint()
	if err != nil {
		return fail(fmt.Errorf("trace: truncated record: %w", err))
	}
	if pages == 0 || pages > maxRequestPages {
		return fail(fmt.Errorf("trace: implausible page count %d", pages))
	}
	r.Pages = int(pages)
	if r.Op == OpWrite {
		r.FPs = tr.fps.take(r.Pages)
		for i := range r.FPs {
			v, err := tr.uvarint()
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
	fps  fpScratch
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
		r, err := parseTextLine(line, &tr.fps)
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

func parseTextLine(line string, fps *fpScratch) (Request, error) {
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
		r.FPs = fps.take(pages)
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
