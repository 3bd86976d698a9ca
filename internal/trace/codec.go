package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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
func NewReader(r io.Reader) (*Reader, error) { return newReader(bufio.NewReader(r)) }

// newReader is NewReader over br itself, whatever its buffer size.
func newReader(br *bufio.Reader) (*Reader, error) {
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

// uvarint is binary.Uvarint reading eight bytes per load: one load
// holds any value below 2^56, and a 9- or 10-byte one takes one or two
// more bytes. Anything else (a short buffer, an overflow) gets
// binary.Uvarint's own answer.
func uvarint(b []byte) (uint64, int) {
	if len(b) < 8 {
		return binary.Uvarint(b)
	}
	w := binary.LittleEndian.Uint64(b)
	if stop := ^w & 0x8080808080808080; stop != 0 {
		// Keep the bytes up to and including the first without a
		// continuation bit.
		return packGroups(w & (stop ^ (stop - 1))), bits.TrailingZeros64(stop)/8 + 1
	}
	v := packGroups(w)
	if len(b) > 8 && b[8] < 0x80 {
		return v | uint64(b[8])<<56, 9
	}
	if len(b) > 9 && b[9] <= 1 {
		return v | uint64(b[8]&0x7f)<<56 | uint64(b[9])<<63, 10
	}
	return binary.Uvarint(b)
}

// packGroups joins the low seven bits of each byte of w, little end
// first, into one 56-bit value.
func packGroups(w uint64) uint64 {
	w &= 0x7f7f7f7f7f7f7f7f
	w = (w&0x7f007f007f007f00)>>1 | w&0x007f007f007f007f
	w = (w&0x3fff00003fff0000)>>2 | w&0x00003fff00003fff
	return (w&0x0fffffff00000000)>>4 | w&0x000000000fffffff
}

// Next implements Source. A record the buffer holds whole and valid is
// decoded in place; any other goes field by field from the same
// position.
func (tr *Reader) Next() (Request, bool) {
	if tr.done {
		return Request{}, false
	}
	if r, ok := tr.nextBuffered(); ok {
		return r, true
	}
	return tr.nextFields()
}

// nextBuffered decodes one record from the bytes already buffered,
// with one Peek and one Discard. It consumes nothing and reports false
// unless the record is there whole and valid, so a record that
// straddles the buffer's end, and every malformed one, is left to
// nextFields at the same position.
func (tr *Reader) nextBuffered() (Request, bool) {
	buf, _ := tr.r.Peek(tr.r.Buffered())
	delta, n := uvarint(buf)
	if n <= 0 || n == len(buf) || delta > uint64(math.MaxInt64-tr.lastAt) {
		return Request{}, false
	}
	op := Op(buf[n])
	if op > OpTrim {
		return Request{}, false
	}
	n++
	lpn, k := uvarint(buf[n:])
	if k <= 0 {
		return Request{}, false
	}
	n += k
	pages, k := uvarint(buf[n:])
	if k <= 0 || pages == 0 || pages > maxRequestPages {
		return Request{}, false
	}
	n += k
	r := Request{At: tr.lastAt + event.Time(delta), Op: op, LPN: lpn, Pages: int(pages)}
	if op == OpWrite {
		r.FPs = tr.fps.take(r.Pages)
		for i := range r.FPs {
			v, k := uvarint(buf[n:])
			if k <= 0 {
				return Request{}, false
			}
			n += k
			r.FPs[i] = dedup.Fingerprint(v)
		}
	}
	tr.r.Discard(n)
	tr.lastAt = r.At
	return r, true
}

// nextFields decodes one record field by field with
// binary.ReadUvarint, reading more input as it needs it; it names every
// error.
func (tr *Reader) nextFields() (Request, bool) {
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
		r.FPs = tr.fps.take(r.Pages)
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

// Next implements Source. An ASCII line is parsed in place; any other
// line, and any line parseTextFields does not take, goes to
// parseTextLine, which names the error.
func (tr *TextReader) Next() (Request, bool) {
	for tr.err == nil && tr.sc.Scan() {
		tr.line++
		var f [5][]byte
		if n, ok := asciiFields(tr.sc.Bytes(), f[:]); ok {
			if n == 0 || f[0][0] == '#' {
				continue
			}
			if r, ok := parseTextFields(&f, n, &tr.fps); ok {
				return r, true
			}
		}
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

// asciiFields splits line at ASCII white space into f, as strings.Fields
// does, and returns how many fields the line has, those past len(f)
// included. It reports false for a line holding a byte outside ASCII,
// whose white space only strings.Fields knows, or a control byte that
// is not white space.
func asciiFields(line []byte, f [][]byte) (n int, ok bool) {
	for i := 0; ; {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i == len(line) {
			return n, true
		}
		start := i
		for i < len(line) && line[i]-'!' <= 0x7f-'!' {
			i++
		}
		if i < len(line) && !asciiSpace(line[i]) {
			return 0, false
		}
		if n < len(f) {
			f[n] = line[start:i]
		}
		n++
	}
}

// asciiSpace reports whether c is one of the ASCII bytes
// unicode.IsSpace accepts.
func asciiSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// decimalDigits parses a field of 1 to 19 ASCII digits, the fields on
// which strconv's base-10 parsers cannot overflow uint64. It reports
// false for any other field (a sign, 20 digits or more), which strconv
// must judge.
func decimalDigits(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	return v, true
}

// hexValue maps each hex digit of either case to its value and every
// other byte to 0xff.
var hexValue = func() (t [256]byte) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = byte(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = byte(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = byte(c - 'A' + 10)
		default:
			t[c] = 0xff
		}
	}
	return t
}()

// hexDigits parses a field of 1 to 16 hex digits of either case. It
// reports false for any other field.
func hexDigits(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := hexValue[c]
		if d == 0xff {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// parseTextFields parses the line asciiFields split into f, n fields
// in all, into what parseTextLine would return for it. It reports
// false for any line it does not take whole: an error, and also valid
// spellings such as a signed or 20-digit number, which parseTextLine
// reads.
func parseTextFields(f *[5][]byte, n int, fps *fpScratch) (Request, bool) {
	if n < 4 || len(f[1]) != 1 {
		return Request{}, false
	}
	at, ok := decimalDigits(f[0])
	if !ok || at > math.MaxInt64 {
		return Request{}, false
	}
	lpn, ok := decimalDigits(f[2])
	if !ok {
		return Request{}, false
	}
	pages, ok := decimalDigits(f[3])
	if !ok || pages < 1 || pages > math.MaxInt {
		return Request{}, false
	}
	r := Request{At: event.Time(at), LPN: lpn, Pages: int(pages)}
	switch f[1][0] {
	case 'R':
		r.Op = OpRead
	case 'T':
		r.Op = OpTrim
	case 'W':
		r.Op = OpWrite
		list := f[4]
		// Each fingerprint takes a digit and all but the last a comma,
		// so a page count the list cannot hold is refused before the
		// scratch buffer grows to it.
		if n != 5 || uint64(len(list)) < 2*pages-1 {
			return Request{}, false
		}
		r.FPs = fps.take(r.Pages)
		// One pass over "fp,fp,...": each of 1 to 16 hex digits.
		i, digits, v := 0, 0, uint64(0)
		for _, c := range list {
			if c == ',' {
				if digits == 0 || i == len(r.FPs)-1 {
					return Request{}, false
				}
				r.FPs[i] = dedup.Fingerprint(v)
				i, digits, v = i+1, 0, 0
				continue
			}
			d := hexValue[c]
			if d == 0xff || digits == 16 {
				return Request{}, false
			}
			v = v<<4 | uint64(d)
			digits++
		}
		if digits == 0 || i != len(r.FPs)-1 {
			return Request{}, false
		}
		r.FPs[i] = dedup.Fingerprint(v)
	default:
		return Request{}, false
	}
	return r, true
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
