// Package flash models a NAND flash subsystem: geometry
// (channel/die/plane/block/page), the page-state machine
// (free → valid → invalid → erased), operation latencies, per-die
// serialization, and endurance (erase count) accounting.
//
// The model follows FlashSim's device layer: the FTL above it decides
// *what* to read, program, and erase; the device decides *when* those
// operations complete under contention and enforces NAND's physical
// rules (out-of-place writes, sequential in-block programming, erase
// before reuse).
package flash

import "fmt"

// PPN is a flat physical page number across the whole device.
type PPN uint64

// BlockID is a flat physical block number across the whole device.
type BlockID uint32

// DieID is a flat die number across the whole device. The die is the
// unit of operation serialization: one read, program, or erase at a
// time per die.
type DieID uint32

// InvalidPPN is a sentinel "no page" value.
const InvalidPPN = PPN(^uint64(0))

// Geometry describes the physical shape of the device.
type Geometry struct {
	Channels      int // independent buses
	DiesPerChan   int // dies (LUNs) per channel
	PlanesPerDie  int // planes per die
	BlocksPerPlan int // blocks per plane
	PagesPerBlock int // pages per block
	PageSize      int // bytes per page
}

// Validate checks that every dimension is positive.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("flash: geometry: Channels = %d, must be > 0", g.Channels)
	case g.DiesPerChan <= 0:
		return fmt.Errorf("flash: geometry: DiesPerChan = %d, must be > 0", g.DiesPerChan)
	case g.PlanesPerDie <= 0:
		return fmt.Errorf("flash: geometry: PlanesPerDie = %d, must be > 0", g.PlanesPerDie)
	case g.BlocksPerPlan <= 0:
		return fmt.Errorf("flash: geometry: BlocksPerPlan = %d, must be > 0", g.BlocksPerPlan)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: geometry: PagesPerBlock = %d, must be > 0", g.PagesPerBlock)
	case g.PageSize <= 0:
		return fmt.Errorf("flash: geometry: PageSize = %d, must be > 0", g.PageSize)
	}
	return nil
}

// Dies returns the total number of dies.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChan }

// TotalBlocks returns the total number of physical blocks.
func (g Geometry) TotalBlocks() int {
	return g.Dies() * g.PlanesPerDie * g.BlocksPerPlan
}

// TotalPages returns the total number of physical pages.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// PhysicalBytes returns the raw capacity in bytes.
func (g Geometry) PhysicalBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// BlockBytes returns the size of one erase block in bytes.
func (g Geometry) BlockBytes() int { return g.PagesPerBlock * g.PageSize }

// PageOf returns the PPN of page pg within block b.
func (g Geometry) PageOf(b BlockID, pg int) PPN {
	return PPN(uint64(b)*uint64(g.PagesPerBlock) + uint64(pg))
}

func (g Geometry) String() string {
	return fmt.Sprintf("%dch x %ddie x %dpl x %dblk x %dpg x %dB (%.2f GiB raw)",
		g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan,
		g.PagesPerBlock, g.PageSize,
		float64(g.PhysicalBytes())/(1<<30))
}
