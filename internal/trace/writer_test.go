package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cagc/internal/dedup"
)

var errDeviceFull = errors.New("device full")

// failAfter accepts its first limit bytes, then fails.
type failAfter struct {
	limit   int
	written int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written+len(p) <= w.limit {
		w.written += len(p)
		return len(p), nil
	}
	n := w.limit - w.written
	w.written = w.limit
	return n, errDeviceFull
}

// shortWriter takes half of every write and reports no error, which
// io.Writer forbids and a Writer must still catch.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

// homesRequests returns n Homes requests with their fingerprints
// copied, enough of them to span several write blocks.
func homesRequests(t *testing.T, n int) []Request {
	t.Helper()
	spec, err := Preset(Homes, 2105, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Collect(g)
}

// A failed underlying write is never a silently short trace: the error
// comes back from Write or Flush, and every later Write and Flush
// returns it again.
func TestWriterErrorsStick(t *testing.T) {
	reqs := homesRequests(t, 20_000)
	full := binaryTraceBytes(t, reqs)
	if len(full) < 3*writeBlock {
		t.Fatalf("trace of %d bytes spans too few blocks", len(full))
	}
	cases := []struct {
		name string
		w    io.Writer
		want error
	}{
		{"fails at once", &failAfter{limit: 0}, errDeviceFull},
		{"fails inside the first block", &failAfter{limit: 100}, errDeviceFull},
		{"fails after one block", &failAfter{limit: writeBlock}, errDeviceFull},
		{"fails inside the second block", &failAfter{limit: writeBlock + 7}, errDeviceFull},
		{"fails in the tail", &failAfter{limit: len(full) - 1}, errDeviceFull},
		{"short write", shortWriter{}, io.ErrShortWrite},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := NewWriter(c.w)
			if err != nil {
				t.Fatal(err)
			}
			var first error
			for _, r := range reqs {
				if err := w.Write(r); err != nil {
					first = err
					break
				}
			}
			if err := w.Flush(); first == nil {
				first = err
			} else if err != first {
				t.Fatalf("Flush after a failed Write: %v, want %v", err, first)
			}
			if !errors.Is(first, c.want) {
				t.Fatalf("error %v, want %v", first, c.want)
			}
			if err := w.Write(reqs[0]); err != first {
				t.Fatalf("Write after the error: %v, want %v", err, first)
			}
			if err := w.Flush(); err != first {
				t.Fatalf("second Flush: %v, want %v", err, first)
			}
			if _, err := WriteAll(c.w, &SliceSource{Reqs: reqs}); !errors.Is(err, c.want) {
				t.Fatalf("WriteAll: %v, want %v", err, c.want)
			}
		})
	}
	// A writer that takes every byte sees exactly the trace.
	var buf bytes.Buffer
	n, err := WriteAll(&buf, &SliceSource{Reqs: reqs})
	if err != nil || n != len(reqs) || !bytes.Equal(buf.Bytes(), full) {
		t.Fatalf("WriteAll: %d requests, %v; %d bytes, want %d", n, err, buf.Len(), len(full))
	}
}

// blockSizes records the size of every write it is handed.
type blockSizes struct{ sizes []int }

func (w *blockSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// The underlying writer sees whole 64 KiB blocks and then the rest at
// Flush, including around a request longer than a block.
func TestWriterBlocks(t *testing.T) {
	reqs := homesRequests(t, 20_000)
	long := Request{At: reqs[len(reqs)-1].At, Op: OpWrite, LPN: 1, Pages: 3 * writeBlock / 8}
	long.FPs = make([]dedup.Fingerprint, long.Pages)
	for i := range long.FPs {
		long.FPs[i] = dedup.Fingerprint(1<<63 + uint64(i))
	}
	reqs = append(reqs, long)
	var w blockSizes
	n, err := WriteAll(&w, &SliceSource{Reqs: reqs})
	if err != nil || n != len(reqs) {
		t.Fatalf("WriteAll: %d, %v", n, err)
	}
	total := 0
	for i, s := range w.sizes {
		total += s
		if last := i == len(w.sizes)-1; !last && s%writeBlock != 0 || last && s >= writeBlock {
			t.Fatalf("write %d of %d is %d bytes", i, len(w.sizes), s)
		}
	}
	if want := len(binaryTraceBytes(t, reqs)); total != want {
		t.Fatalf("%d bytes written, want %d", total, want)
	}
}
