// Flasharray: CAGC at array scale. The paper motivates ultra-low
// latency SSDs for HPC and enterprise storage and cites both the
// tail-at-scale problem and GC-aware request steering in SSD arrays;
// this example builds RAID-1 mirrored pairs from the simulated SSDs
// and shows how the member scheme and read steering interact.
//
//	go run ./examples/flasharray
package main

import (
	"fmt"
	"log"

	"cagc"
)

func main() {
	p := cagc.Params{DeviceBytes: 16 << 20, Requests: 10000}

	fmt.Println("Mirrored pair (RAID-1), Mail workload — volume-level read latency")
	fmt.Printf("%-10s %-14s %12s %12s %12s %10s\n",
		"members", "reads", "p50", "p99", "p99.9", "steered")
	for _, s := range []cagc.Scheme{cagc.Baseline, cagc.CAGC} {
		for _, steer := range []bool{false, true} {
			// Member GC is staggered in both configurations.
			res, err := cagc.RunArray(cagc.Mail, s, p,
				cagc.ArrayParams{Mode: "raid1", Members: 2, Stagger: true, Steer: steer})
			if err != nil {
				log.Fatal(err)
			}
			label := "round-robin"
			if steer {
				label = "GC-aware"
			}
			fmt.Printf("%-10v %-14s %12v %12v %12v %10d\n",
				s, label,
				res.ReadLatency.Percentile(0.50),
				res.ReadLatency.Percentile(0.99),
				res.ReadLatency.Percentile(0.999),
				res.SteeredReads)
		}
	}
	fmt.Println("\nTwo complementary levers against the GC read tail:")
	fmt.Println("- steering routes reads around whichever mirror is collecting;")
	fmt.Println("- CAGC shrinks the collections themselves, so the tail that")
	fmt.Println("  steering cannot dodge (both mirrors busy) is smaller too.")
}
