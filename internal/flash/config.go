package flash

import (
	"fmt"

	"cagc/internal/event"
)

// Latencies holds the timing parameters of the flash subsystem and the
// controller's hash engine (Table I of the paper).
type Latencies struct {
	Read    event.Time // one page read (cell-to-register + transfer)
	Program event.Time // one page program
	Erase   event.Time // one block erase
	Hash    event.Time // fingerprinting one page on the controller hash engine
}

// Validate checks that all latencies are positive.
func (l Latencies) Validate() error {
	if l.Read <= 0 || l.Program <= 0 || l.Erase <= 0 || l.Hash <= 0 {
		return fmt.Errorf("flash: latencies must all be positive: %+v", l)
	}
	return nil
}

// Config bundles geometry, timing, and provisioning for one device.
type Config struct {
	Geometry  Geometry
	Latencies Latencies

	// OverProvision is the fraction of physical capacity hidden from
	// the host (Table I: 7%). The exported logical space is
	// TotalPages/(1+OverProvision), rounded down to whole pages.
	OverProvision float64

	// HashUnits is the number of parallel fingerprint engines in the
	// controller (each takes Latencies.Hash per page). Zero means the
	// default of 1: the paper's premise is that controller compute is
	// scarce — a single SHA engine whose serialization on the write
	// path is exactly what makes inline deduplication expensive.
	HashUnits int

	// EraseLimit is the per-block endurance budget: a block whose
	// erase count has reached the limit fails its next erase and must
	// be retired (bad-block management). Zero means unlimited, the
	// usual simulation setting; end-of-life studies set it low.
	EraseLimit int
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.checkDecodable(); err != nil {
		return err
	}
	if err := c.Latencies.Validate(); err != nil {
		return err
	}
	if c.OverProvision < 0 || c.OverProvision >= 1 {
		return fmt.Errorf("flash: OverProvision = %v, must be in [0, 1)", c.OverProvision)
	}
	if c.HashUnits < 0 {
		return fmt.Errorf("flash: HashUnits = %d, must be >= 0 (0 means default)", c.HashUnits)
	}
	if c.EraseLimit < 0 {
		return fmt.Errorf("flash: EraseLimit = %d, must be >= 0 (0 means unlimited)", c.EraseLimit)
	}
	return nil
}

// hashUnits returns the effective number of hash engines.
func (c Config) hashUnits() int {
	if c.HashUnits == 0 {
		return 1
	}
	return c.HashUnits
}

// UserPages returns the number of logical pages exported to the host.
func (c Config) UserPages() int {
	return int(float64(c.Geometry.TotalPages()) / (1 + c.OverProvision))
}

// UserBytes returns the host-visible capacity in bytes.
func (c Config) UserBytes() int64 {
	return int64(c.UserPages()) * int64(c.Geometry.PageSize)
}

// TableILatencies returns the Z-NAND class timing parameters from
// Table I of the paper: 12 µs read, 16 µs program, 1.5 ms erase, 14 µs
// hash.
func TableILatencies() Latencies {
	return Latencies{
		Read:    12 * event.Microsecond,
		Program: 16 * event.Microsecond,
		Erase:   1500 * event.Microsecond,
		Hash:    14 * event.Microsecond,
	}
}

// TableIConfig returns the full SSD configuration of Table I: 4 KiB
// pages, 256 KiB blocks (64 pages), 80 GB capacity, 7% over-provisioning,
// Z-NAND latencies. The geometry uses 8 channels x 4 dies, a typical
// ultra-low-latency SSD layout.
func TableIConfig() Config {
	const (
		pageSize  = 4096
		pagesBlk  = 64 // 256 KiB / 4 KiB
		channels  = 8
		dies      = 4
		planes    = 2
		wantBytes = int64(80) << 30
	)
	// Solve for blocks per plane so that physical bytes ≈ 80 GB * 1.07.
	want := float64(wantBytes)
	physical := int64(want * 1.07)
	blockBytes := int64(pagesBlk * pageSize)
	totalBlocks := physical / blockBytes
	perPlane := int(totalBlocks) / (channels * dies * planes)
	return Config{
		Geometry: Geometry{
			Channels:      channels,
			DiesPerChan:   dies,
			PlanesPerDie:  planes,
			BlocksPerPlan: perPlane,
			PagesPerBlock: pagesBlk,
			PageSize:      pageSize,
		},
		Latencies:     TableILatencies(),
		OverProvision: 0.07,
	}
}

// ScaledConfig returns a Table-I-parameterized device scaled down to
// approximately physicalBytes of raw flash, preserving page/block sizes,
// latencies, and over-provisioning. Simulations are self-similar in
// device size once the working set is scaled with it, so tests and
// benchmarks use small devices.
func ScaledConfig(physicalBytes int64) Config {
	c := TableIConfig()
	g := &c.Geometry
	// Shrink the channel/die fan-out for very small devices so each
	// plane still has a meaningful number of blocks.
	g.Channels, g.DiesPerChan, g.PlanesPerDie = 4, 2, 1
	blockBytes := int64(g.BlockBytes())
	perPlane := physicalBytes / (int64(g.Dies()) * int64(g.PlanesPerDie) * blockBytes)
	if perPlane < 8 {
		perPlane = 8
	}
	g.BlocksPerPlan = int(perPlane)
	return c
}
