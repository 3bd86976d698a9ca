package trace

// Format sniffing and file opening for the streaming pipeline. A trace
// file may be the binary CAGC container, our one-line-per-request text
// format, raw FIU IODedup text, or gzip of any of them; Open/OpenFile
// look at the bytes (never the file name) to pick a decoder, so pipes
// and renamed files replay the same as pristine downloads.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Format names a trace encoding for the open/convert paths.
type Format uint8

const (
	// FormatAuto sniffs the encoding from the leading bytes.
	FormatAuto Format = iota
	// FormatBinary is the CAGC binary container (magic "CAGCTR01").
	FormatBinary
	// FormatText is the one-line-per-request text format.
	FormatText
	// FormatFIU is the raw FIU IODedup trace text.
	FormatFIU
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatBinary:
		return "binary"
	case FormatText:
		return "text"
	case FormatFIU:
		return "fiu"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// ParseFormat maps a CLI flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return FormatAuto, nil
	case "binary", "bin", "cagc":
		return FormatBinary, nil
	case "text", "txt":
		return FormatText, nil
	case "fiu":
		return FormatFIU, nil
	default:
		return FormatAuto, fmt.Errorf("trace: unknown format %q (want auto, binary, text, or fiu)", s)
	}
}

// sniffBytes is how far sniffText looks for the first content line.
const sniffBytes = 4096

// classifyLine decides whether a single non-blank, non-comment line is
// our text format or FIU. The grammars are disjoint on real input: our
// format puts R/W/T in field 1 of a ≥4-field line; FIU lines have ≥8
// fields with R/W in field 5.
func classifyLine(line string) Format {
	f := strings.Fields(line)
	if len(f) >= 4 {
		switch f[1] {
		case "R", "W", "T":
			return FormatText
		}
	}
	if len(f) >= 8 {
		switch strings.ToUpper(f[5]) {
		case "R", "W":
			return FormatFIU
		}
	}
	return FormatAuto
}

// sniffText classifies a text trace by its first content line.
func sniffText(head []byte) (Format, error) {
	sc := bufio.NewScanner(bytes.NewReader(head))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if f := classifyLine(line); f != FormatAuto {
			return f, nil
		}
		return FormatAuto, fmt.Errorf("trace: cannot determine trace format from line %q", line)
	}
	return FormatAuto, fmt.Errorf("trace: cannot determine trace format (no content in first %d bytes)", sniffBytes)
}

// OpenOptions tunes Open and OpenFile.
type OpenOptions struct {
	// Format forces a specific decoder; FormatAuto sniffs.
	Format Format
	// TimeScale compresses (<1) or stretches (>1) FIU inter-arrival
	// gaps; 0 means 1.0. Only the FIU decoder uses it — the other
	// formats carry simulator-native timestamps (wrap with TimeScale
	// to rescale those).
	TimeScale float64
}

// Open builds a decoding Source for a trace stream of any supported
// format. Gzip is detected by its 2-byte magic before format sniffing,
// so compressed traces replay directly. The returned source implements
// ErrSource; callers must check SourceErr after the stream ends.
func Open(r io.Reader, opts OpenOptions) (Source, error) {
	br := bufio.NewReaderSize(r, 256*1024)
	head, err := br.Peek(2)
	if err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		br = bufio.NewReaderSize(zr, 256*1024)
	}
	format := opts.Format
	if format == FormatAuto {
		head, err := br.Peek(len(magic))
		if err == nil && [8]byte(head) == magic {
			format = FormatBinary
		} else {
			text, _ := br.Peek(sniffBytes)
			if len(text) == 0 {
				return nil, fmt.Errorf("trace: empty trace stream")
			}
			if format, err = sniffText(text); err != nil {
				return nil, err
			}
		}
	}
	switch format {
	case FormatBinary:
		return NewReader(br)
	case FormatText:
		return NewTextReader(br), nil
	case FormatFIU:
		return NewFIUReader(br, opts.TimeScale), nil
	default:
		return nil, fmt.Errorf("trace: unsupported format %v", format)
	}
}

// OpenFile opens path as a decode-ahead stream: the decoder chosen by
// Open runs on the stream's background goroutine. The returned
// closer releases the goroutine and the file; it is safe to call after
// a clean drain.
func OpenFile(path string, opts OpenOptions, sopts StreamOptions) (*Stream, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := Open(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	st := NewStream(src, sopts)
	closer := func() error {
		st.Close()
		return f.Close()
	}
	return st, closer, nil
}
