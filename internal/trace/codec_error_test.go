package trace

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"cagc/internal/dedup"
)

// Binary decoder error paths beyond the basic bad-magic/truncation
// cases in trace_test.go: every malformed byte sequence must surface a
// decode error, never a silently shortened or garbage stream.

// record appends raw record bytes after the container magic.
func recordBytes(body ...byte) []byte {
	return append(append([]byte{}, magic[:]...), body...)
}

func decodeAll(t *testing.T, data []byte) ([]Request, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("header rejected: %v", err)
	}
	got := Collect(r)
	return got, r.Err()
}

func TestBinaryUnknownOp(t *testing.T) {
	// delta=0, op=7 (beyond OpTrim).
	got, err := decodeAll(t, recordBytes(0x00, 0x07, 0x01, 0x01))
	if len(got) != 0 || err == nil {
		t.Fatalf("unknown op: got %d requests, err %v", len(got), err)
	}
	if !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("err = %v", err)
	}
}

func TestBinaryImplausiblePages(t *testing.T) {
	// delta=0, op=OpRead, lpn=1, pages=0.
	if _, err := decodeAll(t, recordBytes(0x00, byte(OpRead), 0x01, 0x00)); err == nil ||
		!strings.Contains(err.Error(), "implausible page count") {
		t.Fatalf("pages=0: err = %v", err)
	}
	// pages = 2^21 (uvarint 0x80 0x80 0x80 0x01), over the 2^20 cap.
	if _, err := decodeAll(t, recordBytes(0x00, byte(OpRead), 0x01, 0x80, 0x80, 0x80, 0x01)); err == nil ||
		!strings.Contains(err.Error(), "implausible page count") {
		t.Fatalf("pages=2^21: err = %v", err)
	}
}

func TestBinaryOverflowingVarint(t *testing.T) {
	// An 11-byte all-continuation varint at the delta position overflows
	// uint64; that is a decode error, not a clean EOF.
	over := bytes.Repeat([]byte{0xff}, 11)
	if _, err := decodeAll(t, recordBytes(over...)); err == nil {
		t.Fatal("overflowing varint accepted")
	}
}

func TestBinaryPartialVarint(t *testing.T) {
	// A lone continuation byte at the delta position: the stream ends
	// mid-varint. Unlike EOF at a record boundary, this must error.
	if _, err := decodeAll(t, recordBytes(0x80)); err == nil {
		t.Fatal("partial varint at record start treated as clean end")
	}
	// Same mid-record: delta fine, op fine, lpn cut.
	if _, err := decodeAll(t, recordBytes(0x00, byte(OpRead), 0x80)); err == nil {
		t.Fatal("partial lpn varint accepted")
	}
}

func TestBinaryTruncatedFingerprints(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Request{At: 1, Op: OpWrite, LPN: 3, Pages: 2,
		FPs: []dedup.Fingerprint{9, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop both 1-byte fingerprints off the end.
	got, err := decodeAll(t, full[:len(full)-2])
	if len(got) != 0 || err == nil || !strings.Contains(err.Error(), "truncated fingerprints") {
		t.Fatalf("got %d requests, err %v", len(got), err)
	}
}

func TestBinaryErrorStopsStream(t *testing.T) {
	// A valid record followed by a corrupt one: the reader yields the
	// good record, then fails and stays failed.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Request{At: 1, Op: OpRead, LPN: 1, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0x00, 0x07) // unknown op follows
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); !ok {
		t.Fatal("good record rejected")
	}
	if _, ok := r.Next(); ok {
		t.Fatal("corrupt record decoded")
	}
	if r.Err() == nil {
		t.Fatal("corruption not reported")
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader resumed after error")
	}
}

// Property: the decoder survives arbitrary garbage after a valid header
// without panicking — it either decodes valid requests or reports an
// error, and every decoded request validates.
func TestBinaryGarbageNeverPanics(t *testing.T) {
	seeds := [][]byte{
		{},
		{0x00},
		{0xff, 0xff, 0xff},
		{0x00, 0x01, 0x00, 0x02, 0x01},
		bytes.Repeat([]byte{0xab}, 64),
	}
	for i, body := range seeds {
		got, _ := decodeAll(t, recordBytes(body...))
		for _, r := range got {
			if err := r.Validate(); err != nil {
				t.Fatalf("seed %d: decoder emitted invalid request %+v: %v", i, r, err)
			}
		}
	}
}

// The binary Reader decodes a record in place when the buffer holds it
// whole and valid, and field by field otherwise. Every way of reading
// must give the same requests and the same error, for every prefix of
// a trace, for corruptions (an overflowing varint, a varint of 10
// bytes whose last byte is too large) in every field position, and for
// the malformed records above: in a 4 KiB buffer; one byte per read,
// so that the buffer never holds a multi-byte uvarint whole; in a
// 16-byte buffer, so that nearly every record straddles its end; and
// with every record sent field by field.
func TestBinaryInPlaceMatchesReadUvarint(t *testing.T) {
	spec, err := Preset(Homes, 2105, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	var inputs [][]byte
	for n := len(magic); n <= len(full); n++ {
		inputs = append(inputs, full[:n])
	}
	for _, bad := range [][]byte{bytes.Repeat([]byte{0xff}, 11), append(bytes.Repeat([]byte{0x80}, 9), 0x02)} {
		for at := len(magic); at < len(full); at += 7 {
			inputs = append(inputs, append(append(append([]byte{}, full[:at]...), bad...), full[at:]...))
		}
	}
	for _, body := range [][]byte{
		{0x00, 0x07, 0x01, 0x01},                           // unknown op
		{0x00, byte(OpRead), 0x01, 0x00},                   // pages = 0
		{0x00, byte(OpRead), 0x01, 0x80, 0x80, 0x80, 0x01}, // pages = 2^21
		bytes.Repeat([]byte{0xff}, 11),                     // overflowing delta
		{0x80},                                             // partial delta
		{0x00, byte(OpRead), 0x80},                         // partial lpn
		{0x01, byte(OpWrite), 0x03, 0x02, 0x09},            // one fingerprint of two
		{0x01, byte(OpRead), 0x01, 0x01, 0x00, 0x07},       // good record, then an unknown op
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, byte(OpRead), 0x01, 0x01,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, byte(OpRead), 0x01, 0x01}, // arrival overflows
		{0x00, 0x01, 0x00, 0x02, 0x01},
		bytes.Repeat([]byte{0xab}, 64),
	} {
		inputs = append(inputs, recordBytes(body...))
	}
	decode := func(br *bufio.Reader, next func(*Reader) (Request, bool)) ([]Request, string) {
		rd, err := newReader(br)
		if err != nil {
			t.Fatal(err)
		}
		var got []Request
		for {
			r, ok := next(rd)
			if !ok {
				break
			}
			r.FPs = slices.Clone(r.FPs)
			got = append(got, r)
		}
		if rd.Err() == nil {
			return got, ""
		}
		return got, rd.Err().Error()
	}
	for i, in := range inputs {
		want, wantErr := decode(bufio.NewReader(bytes.NewReader(in)), (*Reader).nextFields)
		for _, c := range []struct {
			name string
			r    io.Reader
		}{
			{"4 KiB buffer", bytes.NewReader(in)},
			{"byte at a time", iotest.OneByteReader(bytes.NewReader(in))},
			{"16-byte buffer", bufio.NewReaderSize(bytes.NewReader(in), 16)},
		} {
			br, ok := c.r.(*bufio.Reader)
			if !ok {
				br = bufio.NewReader(c.r)
			}
			got, gotErr := decode(br, (*Reader).Next)
			if gotErr != wantErr || len(got) != len(want) {
				t.Fatalf("input %d (%d bytes), %s: %d requests, err %q; field by field: %d, %q", i, len(in), c.name, len(got), gotErr, len(want), wantErr)
			}
			for j := range got {
				if !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("input %d request %d, %s: %+v, field by field %+v", i, j, c.name, got[j], want[j])
				}
			}
		}
	}
}
