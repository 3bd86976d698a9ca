// Command cagctrace converts and inspects content-annotated block I/O
// traces for the streaming replay pipeline: FIU IODedup text (SNIA
// IOTTA set 391), the repository's text format, the compact binary
// CAGC container (delta+uvarint — several times smaller and much
// faster to decode), and gzip of any of them. Input format is sniffed
// from the bytes, never the file name.
//
// Usage:
//
//	cagctrace gen -workload Mail -requests 100000 -o mail.ctr
//	cagctrace convert -i homes-sample.txt -timescale 0.001 -o homes.ctr
//	cagctrace convert -i mail.ctr -text -o mail.txt.gz
//	cagctrace stats -i mail.ctr
//
// The gen subcommand sizes the logical address space exactly like
// `cagcsim -replay` does for the same -device/-util, so generated
// traces replay without clipping.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cagc"
	"cagc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cagctrace:", err)
		os.Exit(1)
	}
}

// run is the testable body of main.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: cagctrace gen|convert|stats [flags] (-h for per-subcommand flags)")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], stderr)
	case "convert":
		return runConvert(args[1:], stderr)
	case "stats":
		return runStats(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, convert, or stats)", args[0])
	}
}

// runGen generates a synthetic preset trace sized to a device, so the
// file replays through `cagcsim -replay` without address clipping.
func runGen(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("cagctrace gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "Mail", "workload preset: Homes, Web-vm, or Mail")
		requests = fs.Int("requests", 100000, "requests to generate")
		device   = fs.Int64("device", 16<<20, "physical flash bytes the trace targets (sizes the logical space like cagcsim -device)")
		util     = fs.Float64("util", 0.55, "logical space as a fraction of user capacity (like cagcsim -util)")
		seed     = fs.Int64("seed", 1, "generator seed")
		out      = fs.String("o", "", "output path ('' = stdout); .gz compresses, -text selects the text format")
		text     = fs.Bool("text", false, "write the human-readable text format instead of binary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := cagc.ParseWorkload(*workload)
	if err != nil {
		return err
	}
	logical, err := cagc.LogicalPagesFor(cagc.Params{DeviceBytes: *device, Utilization: *util})
	if err != nil {
		return err
	}
	spec, err := trace.Preset(w, logical, *requests, *seed)
	if err != nil {
		return err
	}
	gen, err := trace.NewGenerator(spec)
	if err != nil {
		return err
	}
	// Generate one ring ahead of the encoder and the file write.
	src, release := trace.Ahead(gen, *requests, trace.StreamOptions{})
	defer release()
	n, err := emit(src, *out, *text)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cagctrace: generated %d %s requests over %d logical pages\n", n, w, logical)
	return nil
}

// runConvert re-encodes a trace: any readable format in, binary (or
// text) out. The typical pipeline is FIU text → binary container.
func runConvert(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("cagctrace convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in     = fs.String("i", "", "input trace (binary, text, FIU, or gzip of any; format sniffed)")
		out    = fs.String("o", "", "output path ('' = stdout); .gz compresses")
		format = fs.String("format", "auto", "input format override: auto, binary, text, or fiu")
		scale  = fs.Float64("timescale", 0, "FIU inter-arrival scale factor (the raw traces span weeks; 0 = 1.0)")
		text   = fs.Bool("text", false, "write the text format instead of binary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("convert: -i is required")
	}
	f, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}
	src, closer, err := trace.OpenFile(*in, trace.OpenOptions{Format: f, TimeScale: *scale}, trace.StreamOptions{})
	if err != nil {
		return err
	}
	defer closer()
	n, err := emit(src, *out, *text)
	if err != nil {
		return fmt.Errorf("convert: %s: %w", *in, err)
	}
	fmt.Fprintf(stderr, "cagctrace: converted %d requests\n", n)
	return nil
}

// runStats characterizes a trace (Table-II statistics plus the Figure-6
// refcount analysis) without replaying it.
func runStats(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cagctrace stats", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in     = fs.String("i", "", "input trace (binary, text, FIU, or gzip of any; format sniffed)")
		format = fs.String("format", "auto", "input format override: auto, binary, text, or fiu")
		scale  = fs.Float64("timescale", 0, "FIU inter-arrival scale factor (0 = 1.0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: -i is required")
	}
	f, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}
	opts := trace.OpenOptions{Format: f, TimeScale: *scale}
	src, closer, err := trace.OpenFile(*in, opts, trace.StreamOptions{})
	if err != nil {
		return err
	}
	defer closer()
	// One decode feeds both the Table-II characteristics and the
	// Figure-6 refcount analysis.
	var rc trace.RefcountAnalysis
	c := trace.Characterize(refcountTap{src, &rc}, 4096)
	if err := trace.SourceErr(src); err != nil {
		return fmt.Errorf("stats: %s: %w", *in, err)
	}
	fmt.Fprintln(stdout, c)
	sh := rc.Dist.Shares()
	fmt.Fprintf(stdout, "invalidations by refcount: 1: %.1f%%  2: %.1f%%  3: %.1f%%  >3: %.1f%% (n=%d)\n",
		sh[0]*100, sh[1]*100, sh[2]*100, sh[3]*100, rc.Dist.Total())
	return nil
}

// refcountTap passes a source's requests on and adds each one to rc
// before its fingerprints are recycled.
type refcountTap struct {
	trace.Source
	rc *trace.RefcountAnalysis
}

func (t refcountTap) Next() (trace.Request, bool) {
	r, ok := t.Source.Next()
	if ok {
		t.rc.Add(r)
	}
	return r, ok
}

// emit writes the stream to out (stdout when empty) in binary or text,
// gzip-compressing when the path ends in .gz, and returns the request
// count. A source that fails fails the output rather than shortening
// it.
func emit(src trace.Source, out string, asText bool) (n int, retErr error) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return 0, err
		}
		defer func() {
			if err := f.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
		w = f
		if strings.HasSuffix(out, ".gz") {
			gz := gzip.NewWriter(f)
			defer func() {
				if err := gz.Close(); err != nil && retErr == nil {
					retErr = err
				}
			}()
			w = gz
		}
	}
	write := trace.WriteAll
	if asText {
		write = trace.WriteText
	}
	if n, retErr = write(w, src); retErr == nil {
		retErr = trace.SourceErr(src)
	}
	return n, retErr
}
