package cagc

import (
	"bytes"
	"testing"
)

// A nil *TraceRecorder is tracing off: a run handed one, typed or
// untyped, renders exactly the untraced document, and so does a traced
// run.
func TestNilTraceRecorderIsUntraced(t *testing.T) {
	render := func(p Params) []byte {
		t.Helper()
		res, err := Run(Mail, CAGC, "greedy", p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		FprintResult(&buf, res)
		return buf.Bytes()
	}
	want := render(Params{Requests: 100})
	if got := render(Params{Requests: 100, Trace: (*TraceRecorder)(nil)}); !bytes.Equal(got, want) {
		t.Fatalf("typed-nil recorder changed the document:\n%s\nwant\n%s", got, want)
	}
	rec := NewTraceRecorder()
	if got := render(Params{Requests: 100, Trace: rec}); !bytes.Equal(got, want) {
		t.Fatalf("traced run changed the document:\n%s\nwant\n%s", got, want)
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded nothing")
	}
}
