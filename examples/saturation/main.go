// Saturation: beyond the paper's open-loop replay — what does CAGC buy
// when the host never lets the SSD idle? Sweeps closed-loop queue
// depth, compares Baseline vs CAGC throughput, and shows the cost of
// SRAM-limited mapping metadata (a DFTL-style cached mapping table),
// which grows once dedup metadata competes for controller RAM.
//
//	go run ./examples/saturation
package main

import (
	"fmt"
	"log"

	"cagc"
)

func main() {
	p := cagc.Params{DeviceBytes: 16 << 20, Requests: 6000}
	depths := []int{1, 2, 4, 8, 16, 32}
	caches := []int{512, 2048, 0}

	// One batch runs both studies: Baseline and CAGC at every
	// closed-loop queue depth, then CAGC at every mapping-cache size.
	var items []cagc.BatchItem
	for _, qd := range depths {
		q := p
		q.QueueDepth = qd
		items = append(items,
			cagc.BatchItem{Workload: cagc.Mail, Scheme: cagc.Baseline, Params: q},
			cagc.BatchItem{Workload: cagc.Mail, Scheme: cagc.CAGC, Params: q})
	}
	for _, n := range caches {
		q := p
		q.MappingCache = n
		items = append(items, cagc.BatchItem{Workload: cagc.Mail, Scheme: cagc.CAGC, Params: q})
	}
	b := cagc.RunBatch(items, 0)
	if err := b.Err(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Closed-loop saturation throughput, Mail workload")
	fmt.Printf("%-6s %14s %14s %8s\n", "QD", "Baseline IOPS", "CAGC IOPS", "gain")
	for i, qd := range depths {
		base, cg := b.Results[2*i], b.Results[2*i+1]
		fmt.Printf("%-6d %14.0f %14.0f %7.2fx\n", qd, base.IOPS(), cg.IOPS(), cg.IOPS()/base.IOPS())
	}
	fmt.Println("\nUnder saturation there are no idle windows for background GC,")
	fmt.Println("so every block erased is paid for in foreground throughput —")
	fmt.Println("CAGC's smaller GC bill becomes an IOPS advantage.")

	fmt.Println("\nMapping-metadata pressure (CAGC, open-loop):")
	fmt.Printf("%-16s %12s %10s\n", "CMT entries", "mean µs", "p99 µs")
	for i, n := range caches {
		r := b.Results[2*len(depths)+i]
		label := "all in RAM"
		if n > 0 {
			label = fmt.Sprintf("%d", n)
		}
		fmt.Printf("%-16s %12.1f %10.1f\n", label, r.MeanLatency(), r.Latency.Percentile(0.99).Micros())
	}
	fmt.Println("\nA cached mapping table stalls user requests on translation-page")
	fmt.Println("reads; the paper assumes a fully RAM-resident map (the top row).")
}
