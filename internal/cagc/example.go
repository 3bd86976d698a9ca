package cagc

import (
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
)

// Figure 8 of the paper: four files are written, files 2 and 4 are
// deleted, and garbage collection runs. Traditional GC (no content
// awareness) must copy every valid page it migrates and erase more
// blocks; CAGC eliminates the redundant copies during migration and
// packs shared pages, so it writes fewer pages and erases fewer blocks
// while freeing more space.
//
// The four files of the figure, as sequences of content letters:
//
//	File 1: A B C D
//	File 2: E B F
//	File 3: D A B
//	File 4: B G
//
// Files map onto consecutive logical pages; each letter is one page of
// content; deleting a file trims its pages.

// ExampleFiles are the page contents of Figure 8's four files.
var ExampleFiles = [][]byte{
	{'A', 'B', 'C', 'D'},
	{'E', 'B', 'F'},
	{'D', 'A', 'B'},
	{'B', 'G'},
}

// WorkedResult reports what one scheme did in the Figure-8 scenario.
type WorkedResult struct {
	Scheme          Scheme
	MigrationWrites uint64 // valid-page copies performed by GC (paper: 12 vs 7)
	Promotions      uint64 // hot->cold moves when refcounts cross the threshold
	GCDupDropped    uint64 // redundant copies eliminated (paper: 5 for CAGC)
	BlocksErased    uint64
	ValidAfter      int // live flash pages after the deletes (paper: 7 vs 4 contents)
	FreePagesAfter  int
	LiveContents    int // unique stored contents at the end
}

// WorkedExample runs the Figure-8 scenario under the given scheme on a
// tiny deterministic device (4-page blocks, like the figure) and
// returns what GC had to do. The comparison between Baseline and CAGC
// reproduces the figure's qualitative claim: CAGC writes fewer pages
// and erases fewer blocks during GC while freeing more space.
func WorkedExample(s Scheme) (WorkedResult, error) {
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels:      1,
			DiesPerChan:   1,
			PlanesPerDie:  1,
			BlocksPerPlan: 12,
			PagesPerBlock: 4, // the figure draws 4-page blocks
			PageSize:      4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.2,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		return WorkedResult{}, err
	}
	f, err := Build(dev, 16, s, nil)
	if err != nil {
		return WorkedResult{}, err
	}

	// Write the four files to consecutive logical pages.
	now := event.Time(0)
	lpn := uint64(0)
	fileStart := make([]uint64, len(ExampleFiles))
	for i, file := range ExampleFiles {
		fileStart[i] = lpn
		for _, letter := range file {
			end, err := f.Write(now, lpn, dedup.Of([]byte{letter}))
			if err != nil {
				return WorkedResult{}, fmt.Errorf("writing file %d: %w", i+1, err)
			}
			now = end
			lpn++
		}
	}

	// GC consolidates the freshly written blocks (the figure runs GC
	// between the writes and the deletes).
	before := f.Stats()
	if err := f.CollectAll(now); err != nil {
		return WorkedResult{}, err
	}
	after := f.Stats()

	// Delete files 2 and 4.
	for _, i := range []int{1, 3} {
		for p := 0; p < len(ExampleFiles[i]); p++ {
			end, err := f.Trim(now, fileStart[i]+uint64(p))
			if err != nil {
				return WorkedResult{}, fmt.Errorf("deleting file %d: %w", i+1, err)
			}
			now = end
		}
	}

	free, valid, _ := dev.CountStates()
	return WorkedResult{
		Scheme:          s,
		MigrationWrites: after.PagesMigrated - before.PagesMigrated,
		Promotions:      after.Promotions - before.Promotions,
		GCDupDropped:    after.GCDupDropped - before.GCDupDropped,
		BlocksErased:    after.BlocksErased - before.BlocksErased,
		ValidAfter:      valid,
		FreePagesAfter:  free,
		LiveContents:    f.LiveContents(),
	}, nil
}
