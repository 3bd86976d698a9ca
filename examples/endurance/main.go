// Endurance: the paper's reliability claim as a runnable study — fewer
// erases mean longer flash life. Replays the same workload through
// Baseline, Inline-Dedupe and CAGC, converts erase activity into a
// projected device lifetime at a Z-NAND-class endurance budget, and
// shows what static wear leveling adds on top of CAGC's cold region.
//
//	go run ./examples/endurance
package main

import (
	"fmt"
	"log"

	"cagc"
)

// enduranceCycles is a Z-NAND-class per-block erase budget.
const enduranceCycles = 30000

func main() {
	p := cagc.Params{DeviceBytes: 32 << 20, Requests: 12000}

	fmt.Println("Endurance study — Mail workload, identical trace for every scheme")
	fmt.Printf("%-14s %8s %10s %12s %14s\n",
		"scheme", "erased", "spread", "wear rate*", "lifetime**")
	var results []*cagc.Result
	for _, s := range cagc.Schemes {
		r, err := cagc.Run(cagc.Mail, s, "greedy", p)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
		printRow(r)
	}

	// CAGC's cold region pins young blocks; static wear leveling
	// unpins them.
	wlp := p
	wlp.WearLevelThreshold = 3
	wl, err := cagc.Run(cagc.Mail, cagc.CAGC, "greedy", wlp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %8d %10d %12s %14s   (+%d WL swaps)\n",
		"CAGC+WL", wl.FTL.BlocksErased, wl.EraseSpread, "", "", wl.FTL.WLSwaps)

	base, cg := results[1], results[2]
	if base.FTL.BlocksErased > 0 {
		gain := float64(base.FTL.BlocksErased) / float64(cg.FTL.BlocksErased)
		fmt.Printf("\nCAGC erases %.2fx fewer blocks than Baseline on this trace,\n", gain)
		fmt.Printf("which extends projected lifetime by the same factor.\n")
	}
	fmt.Println("\n*  erases per block per hour, projected to the paper's 80 GB device")
	fmt.Printf("** years until the average block reaches %d cycles at this intensity\n", enduranceCycles)
}

func printRow(r *cagc.Result) {
	// Average erases per block over the measured window, projected to
	// the paper's 80 GB device: the same workload intensity spread over
	// proportionally more blocks wears each block proportionally less.
	hours := float64(r.Duration) / float64(3600*cagc.Time(1_000_000_000))
	const blocks = 128 // 32 MiB / 256 KiB
	const scaleTo80GB = float64(80<<30) / float64(32<<20)
	rate := float64(r.FTL.BlocksErased) / blocks / hours / scaleTo80GB
	life := "-"
	if rate > 0 {
		years := enduranceCycles / rate / 24 / 365
		life = fmt.Sprintf("%.1fy", years)
	}
	fmt.Printf("%-14s %8d %10d %12.2f %14s\n",
		r.Scheme, r.FTL.BlocksErased, r.EraseSpread, rate, life)
}
