// Tracefile: the workflow a user with their own traces follows —
// generate (or convert) a content-annotated trace, save it in the
// binary trace format, and replay the same file through two schemes for
// an apples-to-apples comparison.
//
//	go run ./examples/tracefile
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cagc"
)

func main() {
	p := cagc.Params{DeviceBytes: 32 << 20, Requests: 8000}

	// 1. Build a workload spec sized to the device and materialize it
	//    as a trace file. Any source of cagc.TraceRequest works here —
	//    this is where you would plug in your own converted traces.
	spec, err := cagc.WorkloadSpec(cagc.WebVM, p)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := cagc.NewTraceGenerator(spec)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "webvm.cagctrace")
	n, err := cagc.WriteTraceFile(path, gen)
	if err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d requests to %s (%d bytes, %.1f B/request)\n",
		n, path, st.Size(), float64(st.Size())/float64(n))
	defer os.Remove(path)

	// 2. Replay the identical file through Baseline and CAGC.
	for _, s := range []cagc.Scheme{cagc.Baseline, cagc.CAGC} {
		res, err := cagc.ReplayFile(path, cagc.WebVM, s, "greedy", p, cagc.ReplayFileOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== %s ===\n", s)
		cagc.FprintResult(os.Stdout, res)
	}
}
