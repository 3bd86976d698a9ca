package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cagc/internal/dedup"
)

// uvarint reads eight bytes per load; it must give binary.Uvarint's
// value and length for every input, at every length from 0 to 12: the
// 9- and 10-byte values, the 10th-byte overflow, an all-continuation
// run and a buffer that ends mid-value.
func TestUvarintMatchesBinary(t *testing.T) {
	var inputs [][]byte
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range []uint64{0, 1, 127, 128, 300, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		enc := tmp[:binary.PutUvarint(tmp[:], v)]
		for _, pad := range []byte{0x00, 0x80, 0xff} {
			inputs = append(inputs, append(append([]byte{}, enc...), bytes.Repeat([]byte{pad}, 12)...))
		}
	}
	for k := 1; k <= 63; k++ {
		enc := tmp[:binary.PutUvarint(tmp[:], 1<<k|1)]
		inputs = append(inputs, append(append([]byte{}, enc...), 0x05, 0x80, 0x80))
	}
	for _, last := range []byte{0x00, 0x01, 0x02, 0x7f, 0x80, 0xff} {
		for _, cont := range []byte{0x80, 0xff} {
			in := append(bytes.Repeat([]byte{cont}, 9), last, 0x00, 0x00)
			inputs = append(inputs, in)
			// The 9th byte ends the value.
			inputs = append(inputs, append(bytes.Repeat([]byte{cont}, 8), last&0x7f, 0x00, 0x00, 0x00))
		}
	}
	inputs = append(inputs, bytes.Repeat([]byte{0x80}, 12), bytes.Repeat([]byte{0xff}, 12),
		[]byte{0x80, 0x00, 0x01}) // 0 spelt in two bytes
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		in := make([]byte, 12)
		rng.Read(in)
		// Mostly continuation bytes, so long values are common.
		for j := range in {
			if rng.Intn(8) != 0 {
				in[j] |= 0x80
			}
		}
		inputs = append(inputs, in)
	}
	for _, in := range inputs {
		for n := 0; n <= len(in); n++ {
			wantV, wantN := binary.Uvarint(in[:n])
			if gotV, gotN := uvarint(in[:n]); gotV != wantV || gotN != wantN {
				t.Fatalf("uvarint(% x) = %d, %d; binary.Uvarint %d, %d", in[:n], gotV, gotN, wantV, wantN)
			}
		}
	}
}

// fallbackText is the text reader with every line sent through
// parseTextLine, as it read before lines were parsed in place.
type fallbackText struct{ *TextReader }

func (f fallbackText) Next() (Request, bool) {
	tr := f.TextReader
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

// fallbackFIU is the FIU reader with every line sent through parse.
type fallbackFIU struct{ *FIUReader }

func (f fallbackFIU) Next() (Request, bool) {
	fr := f.FIUReader
	for fr.err == nil && fr.sc.Scan() {
		fr.line++
		line := strings.TrimSpace(fr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := fr.parse(line)
		if err != nil {
			fr.err = fmt.Errorf("trace: fiu line %d: %w", fr.line, err)
			return Request{}, false
		}
		return r, true
	}
	if fr.err == nil {
		fr.err = fr.sc.Err()
	}
	return Request{}, false
}

// drainText decodes at most fuzzOpenMax requests, fingerprints copied,
// and the error's text.
func drainText(src ErrSource) ([]Request, string) {
	var got []Request
	for len(got) < fuzzOpenMax {
		r, ok := src.Next()
		if !ok {
			if err := src.Err(); err != nil {
				return got, err.Error()
			}
			break
		}
		r.FPs = append([]dedup.Fingerprint(nil), r.FPs...)
		got = append(got, r)
	}
	return got, ""
}

// checkLinesMatchFallback decodes data as text and as FIU (at time
// scales 1 and 0.5) through the readers and through the fallback
// parsers, which must agree request for request and error for error.
func checkLinesMatchFallback(t *testing.T, data []byte) {
	t.Helper()
	type pair struct {
		name       string
		fast, slow ErrSource
	}
	pairs := []pair{{"text", NewTextReader(bytes.NewReader(data)), fallbackText{NewTextReader(bytes.NewReader(data))}}}
	for _, scale := range []float64{1, 0.5} {
		pairs = append(pairs, pair{fmt.Sprintf("fiu×%g", scale),
			NewFIUReader(bytes.NewReader(data), scale), fallbackFIU{NewFIUReader(bytes.NewReader(data), scale)}})
	}
	for _, p := range pairs {
		got, gotErr := drainText(p.fast)
		want, wantErr := drainText(p.slow)
		if gotErr != wantErr || len(got) != len(want) {
			t.Fatalf("%s %q: %d requests, err %q; fallback %d, %q", p.name, data, len(got), gotErr, len(want), wantErr)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s %q: request %d %+v, fallback %+v", p.name, data, i, got[i], want[i])
			}
		}
	}
}

// textEdgeLines and fiuEdgeLines are lines at the edge of what the
// in-place parsers take: spellings strconv reads and they leave to the
// fallback (signs, 20 digits, leading zeros past 16 hex digits), white
// space and bytes only strings.Fields splits at, and malformed fields.
var textEdgeLines = []string{
	"10 R 5 1", "10\tW\t5\t2\tab,CD", "  10 W 5 2 ab,cd  ", "10 T 5 8",
	"+10 R 5 1", "-10 R 5 1", "10 R +5 1", "10 R 5 +1", "10 R 5 0", "10 R 5 -1", "10 r 5 1",
	"10 W 5 2 ab", "10 W 5 2 ab,cd,ef", "10 W 5 3 ab,,cd", "10 W 5 2 ab,", "10 W 5 2 ,ab", "10 W 5 1",
	"10 W 5 1 00000000000000000001", "10 W 5 1 fffffffffffffffff", "10 W 5 1 ffffffffffffffff",
	"10 W 5 1 0x10", "10 W 5 1 ab cd", "10 W 5 1 _ab", "10 W 5 2 a_b,1", "10 W 0 0 ", "10 W 5 99999999999 ab",
	"10 R 5 1 extra fields here", "10 R 5", "10 RW 5 1", "",
	"99999999999999999999 R 5 1", "9223372036854775807 R 5 1", "9223372036854775808 R 5 1",
	"10 R 18446744073709551615 1", "10 R 18446744073709551616 1", "10 R 9999999999999999999 1",
	"10 R 5 9223372036854775807", "10 R 5 9223372036854775808", "0010 R 005 01",
	"# comment", "   # comment", "#", "10 R 5 1 # trailing",
	"10 R 5 1\u00a0x", "\u00a010 R 5 1", "10\u2003R 5 1", "10 R 5 1\u0085", "10 R 5 1\x00", "10 R\x015 1",
	"10\vR\f5\r1", "10 R 5 1\x7f", "10 W 5 1 \xffab",
}

var fiuEdgeLines = []string{
	"1000000000 1234 httpd 500 1 W 8 1 0123456789abcdef0123456789abcdef",
	"1000000000 1234 httpd 500 1 w 8 1 0123456789ABCDEF0123456789abcdef",
	"1 2 p 5 1 r 8 1", "1 2 p 5 1 R 8 1 x", "1 2 p 5 1 R 8", "1 2 p 5 1 W 8 1",
	"+1 2 p 5 1 R 8 1", "-5 2 p 5 1 R 8 1", "1 2 p +5 1 R 8 1", "1 2 p 5 +1 R 8 1",
	"1 2 p 5 1 W 8 1 0123456789abcdef0123", "1 2 p 5 1 W 8 1 0123456789abcdef0123456789abcde",
	"1 2 p 5 1 W 8 1 0123456789abcdef0123456789abcdef0", "1 2 p 5 1 W 8 1 0123456789abcdef0123456789abcdefzz",
	"1 2 p 5 1 W 8 1 0123456789abcdeg", "1 2 p 5 1 W 8 1 0123456789abcdef012345678zabcdef",
	"1 2 p 5 1 W 8 1 0123456789abcde", "1 2 p 5 1 W 8 1 +123456789abcdef", "1 2 p 5 1 W 8 1 _123456789abcdef",
	"1 2 p 5 1048577 R 8 1", "1 2 p 5 0 R 8 1", "1 2 p 5 3 W 8 1 0123456789abcdef extra",
	"1 2 p 5 1 WW 8 1 0123456789abcdef", "1 2 p 5 1 Q 8 1", "1 2 p", "",
	"9223372036854775807 2 p 5 1 R 8 1", "9223372036854775808 2 p 5 1 R 8 1",
	"1 2 p 18446744073709551615 1 R 8 1", "1 2 p 18446744073709551616 1 R 8 1",
	"# comment", "  #", "1 2 ht\u00a0tpd 5 1 R 8 1", "1 2 p 5 1 R 8 1\u00a0", "1 2 p\x00 5 1 R 8 1",
	"1\t2\tp\t5\t1\tW\t8\t1\t0123456789abcdef",
}

// The in-place line parsers agree with the fallback parsers on every
// edge line, alone, after a good line (the FIU reader rebases on the
// first timestamp) and in one file (which stops at the first error).
func TestLineFastPathMatchesFallback(t *testing.T) {
	for _, set := range [][]string{textEdgeLines, fiuEdgeLines} {
		for _, line := range set {
			checkLinesMatchFallback(t, []byte(line+"\n"))
			checkLinesMatchFallback(t, []byte("1000 R 5 1\n"+line))
			checkLinesMatchFallback(t, []byte("1000 1 p 5 1 R 8 1\n"+line+"\r\n"))
		}
		checkLinesMatchFallback(t, []byte(strings.Join(set, "\n")))
	}
	// A scaled timestamp out of range, after the first.
	checkLinesMatchFallback(t, []byte("0 1 p 5 1 R 8 1\n9223372036854775807 1 p 5 1 R 8 1\n"))
	// Lines of random tokens, most of them well-formed field by field.
	tokens := []string{" ", " ", " ", "\t", "1", "2", "10", "0", "+", "-", "R", "W", "T", "r", "w", "p",
		"ab", "CD", ",", ",", "#", "\u00a0", "\x00", "ffffffffffffffff", "99999999999999999999",
		"0123456789abcdef0123456789abcdef", "9223372036854775807"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2_000; i++ {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			b.WriteString(tokens[rng.Intn(len(tokens))])
		}
		checkLinesMatchFallback(t, []byte(b.String()))
	}
	// Lines of random fields in the two formats' shapes, so that most
	// parse: a field is a typical value or, now and then, an edge one.
	pick := func(typical, edge []string) string {
		if rng.Intn(6) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return typical[rng.Intn(len(typical))]
	}
	num := []string{"0", "7", "1000", "123456789", "9223372036854775807"}
	odd := []string{"+1", "-1", "", "00", "99999999999999999999", "18446744073709551615", "1x", "\u00a0"}
	fps := []string{"ab", "ab,CD", "0,1,ffffffffffffffff", "1,2,3,4"}
	oddFPs := []string{"ab,", ",ab", "00000000000000000001", "fffffffffffffffff", "a_b", "ab,,cd"}
	md5 := []string{"0123456789abcdef0123456789ABCDEF", "0123456789abcdef", "0123456789abcdef0123"}
	oddMD5 := []string{"0123456789abcde", "0123456789abcdeg", "", "0123456789abcdef012345678zabcdef"}
	seps := []string{" ", " ", "\t", "  "}
	for i := 0; i < 2_000; i++ {
		sep := seps[rng.Intn(len(seps))]
		text := []string{pick(num, odd), pick([]string{"R", "W", "T"}, []string{"r", "Q", "WW"}),
			pick(num, odd), pick([]string{"1", "2", "3", "4"}, odd), pick(fps, oddFPs)}
		fiu := []string{pick(num, odd), "42", "proc", pick(num, odd), pick([]string{"1", "2", "4"}, odd),
			pick([]string{"R", "W", "w", "r"}, []string{"T", "WR"}), "8", "1", pick(md5, oddMD5)}
		checkLinesMatchFallback(t, []byte(strings.Join(text[:3+rng.Intn(3)], sep)))
		checkLinesMatchFallback(t, []byte("5 1 p 1 1 R 8 1\n"+strings.Join(fiu[:7+rng.Intn(3)], sep)))
	}
}
