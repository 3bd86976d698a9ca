package flash

import (
	"errors"
	"fmt"

	"cagc/internal/event"
	"cagc/internal/obs"
)

// Operation errors. All wrap one of these sentinels so callers can test
// with errors.Is.
var (
	ErrBadPPN        = errors.New("flash: page number out of range")
	ErrBadBlock      = errors.New("flash: block number out of range")
	ErrNotProgrammed = errors.New("flash: reading a free page")
	ErrOutOfOrder    = errors.New("flash: program must fill a block sequentially")
	ErrPageBusy      = errors.New("flash: page is not free")
	ErrLiveErase     = errors.New("flash: erasing a block with valid pages")
	ErrNotInvalid    = errors.New("flash: page is not valid")
	ErrWornOut       = errors.New("flash: block has exhausted its erase budget")
)

// Stats aggregates lifetime operation counts for a device.
type Stats struct {
	PageReads    uint64
	PagePrograms uint64
	BlockErases  uint64
}

// Device is one simulated NAND flash SSD back end. It owns page state,
// per-die timing, and endurance accounting. Device is not safe for
// concurrent use; the event-driven simulator is single-threaded by
// design (determinism), and parallelism inside the device is modelled
// by the per-die timelines rather than by goroutines.
type Device struct {
	cfg    Config
	blocks []Block
	dies   []*event.Timeline
	hash   *event.Pool // controller hash engines
	stats  Stats
	dieOps []Stats // per-die operation counts, for balance diagnostics

	// totalPages caches Geometry.TotalPages() — checkPPN guards every
	// page operation, and recomputing the product there is measurable.
	totalPages uint64
	// dec decodes page and block numbers without dividing; built once
	// here and copied by the FTL (see Decoder).
	dec Decoder

	tr obs.Tracer // never nil; obs.Nop when tracing is off

	now event.Time // latest operation time observed, for block ages
}

// NewDevice builds a device in the all-erased state.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	d := &Device{
		cfg:        cfg,
		blocks:     make([]Block, g.TotalBlocks()),
		dies:       make([]*event.Timeline, g.Dies()),
		hash:       event.NewPool(cfg.hashUnits()),
		dieOps:     make([]Stats, g.Dies()),
		tr:         obs.Nop,
		totalPages: uint64(g.TotalPages()),
		dec:        newDecoder(g),
	}
	for i := range d.blocks {
		d.blocks[i].states = make([]PageState, g.PagesPerBlock)
		d.blocks[i].tags = make([]uint64, g.PagesPerBlock)
	}
	for i := range d.dies {
		d.dies[i] = event.NewTimeline()
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.cfg.Geometry }

// Decoder returns the device's division-free address decoder.
func (d *Device) Decoder() Decoder { return d.dec }

// Stats returns a copy of the lifetime operation counters.
func (d *Device) Stats() Stats { return d.stats }

// Block returns read-only bookkeeping for block b. The pointer is owned
// by the device; callers must not retain it across erases if they need
// a snapshot.
func (d *Device) Block(b BlockID) (*Block, error) {
	if int(b) >= len(d.blocks) {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrBadBlock, b, len(d.blocks))
	}
	return &d.blocks[b], nil
}

// DieFreeAt returns when die die becomes idle.
func (d *Device) DieFreeAt(die DieID) event.Time { return d.dies[die].FreeAt() }

// SetTracer installs the tracer die operations are reported to (nil
// reverts to the no-op default).
func (d *Device) SetTracer(tr obs.Tracer) { d.tr = obs.Or(tr) }

// ReserveDie books raw die time for controller-managed traffic that is
// not part of the data-page state machine (e.g., translation-page I/O
// in a cached-mapping FTL). It returns the completion time.
func (d *Device) ReserveDie(at event.Time, die DieID, dur event.Time) event.Time {
	start, end := d.dies[die].Reserve(at, dur)
	d.tr.Span(obs.DieTrack(int(die)), obs.KDieMeta, start, end, uint64(die))
	d.observe(end)
	return end
}

// HashEngine exposes the controller hash-engine pool so FTL schemes can
// reserve fingerprint computations on it (possibly overlapped with
// flash operations — the CAGC pipeline).
func (d *Device) HashEngine() *event.Pool { return d.hash }

func (d *Device) checkPPN(p PPN) error {
	if uint64(p) >= d.totalPages {
		return fmt.Errorf("%w: %d (have %d)", ErrBadPPN, p, d.totalPages)
	}
	return nil
}

func (d *Device) observe(t event.Time) {
	if t > d.now {
		d.now = t
	}
}

// ReadPage reserves die time to read page p starting no earlier than at,
// returning the completion time. Reading a free page is an FTL bug and
// returns an error.
func (d *Device) ReadPage(at event.Time, p PPN) (event.Time, error) {
	if err := d.checkPPN(p); err != nil {
		return 0, err
	}
	b, idx := d.dec.Split(p)
	if d.blocks[b].states[idx] == PageFree {
		return 0, fmt.Errorf("%w: ppn %d", ErrNotProgrammed, p)
	}
	die := d.dec.DieOfBlock(b)
	start, end := d.dies[die].Reserve(at, d.cfg.Latencies.Read)
	d.tr.Span(obs.DieTrack(int(die)), obs.KDieRead, start, end, uint64(p))
	d.stats.PageReads++
	d.dieOps[die].PageReads++
	d.observe(end)
	return end, nil
}

// ProgramPage reserves die time to program page p with content tag tag,
// starting no earlier than at and no earlier than dataReady (when the
// data to program is available, e.g. after a GC read or a hash check).
// NAND constraint: pages within a block must be programmed in order.
// It is the address-checked form of ProgramNext for callers that name
// the page themselves.
func (d *Device) ProgramPage(at, dataReady event.Time, p PPN, tag uint64) (event.Time, error) {
	if err := d.checkPPN(p); err != nil {
		return 0, err
	}
	b, idx := d.dec.Split(p)
	blk := &d.blocks[b]
	if blk.states[idx] != PageFree {
		return 0, fmt.Errorf("%w: ppn %d is %v", ErrPageBusy, p, blk.states[idx])
	}
	if idx != blk.writePtr {
		return 0, fmt.Errorf("%w: ppn %d is page %d of block %d, next programmable is %d",
			ErrOutOfOrder, p, idx, b, blk.writePtr)
	}
	return d.program(at, dataReady, b, blk, p, tag), nil
}

// ProgramNext programs the page at block b's write pointer — NAND's
// in-order rule holds by construction, so there is no address to decode
// or check — with the timing of ProgramPage. It returns the page
// programmed, the completion time, and whether that page filled the
// block. Programming a full block is an FTL bug and returns an error.
func (d *Device) ProgramNext(at, dataReady event.Time, b BlockID, tag uint64) (p PPN, end event.Time, full bool, err error) {
	if int(b) >= len(d.blocks) {
		return InvalidPPN, 0, false, fmt.Errorf("%w: %d (have %d)", ErrBadBlock, b, len(d.blocks))
	}
	blk := &d.blocks[b]
	if blk.Full() {
		return InvalidPPN, 0, false, fmt.Errorf("%w: block %d is full", ErrPageBusy, b)
	}
	p = d.dec.PageOf(b, blk.writePtr)
	end = d.program(at, dataReady, b, blk, p, tag)
	return p, end, blk.Full(), nil
}

// program books the die and records page p — the free page at blk's
// write pointer — as valid; ProgramPage and ProgramNext share it.
func (d *Device) program(at, dataReady event.Time, b BlockID, blk *Block, p PPN, tag uint64) event.Time {
	die := d.dec.DieOfBlock(b)
	start, end := d.dies[die].ReserveAfter(at, dataReady, d.cfg.Latencies.Program)
	d.tr.Span(obs.DieTrack(int(die)), obs.KDieProgram, start, end, uint64(p))
	d.dieOps[die].PagePrograms++
	blk.states[blk.writePtr] = PageValid
	blk.tags[blk.writePtr] = tag
	blk.writePtr++
	blk.validCnt++
	blk.lastProgram = int64(end)
	d.stats.PagePrograms++
	d.observe(end)
	return end
}

// Invalidate marks a valid page invalid. It costs no device time (a
// mapping-table update in controller RAM).
func (d *Device) Invalidate(p PPN) error {
	if err := d.checkPPN(p); err != nil {
		return err
	}
	b, idx := d.dec.Split(p)
	blk := &d.blocks[b]
	if blk.states[idx] != PageValid {
		return fmt.Errorf("%w: ppn %d is %v", ErrNotInvalid, p, blk.states[idx])
	}
	blk.states[idx] = PageInvalid
	blk.validCnt--
	blk.invalidCnt++
	return nil
}

// EraseBlock reserves die time to erase block b starting no earlier
// than at, and no earlier than migrated (when the last valid-page
// migration out of the block finished). Erasing a block that still has
// valid pages loses data and is rejected.
func (d *Device) EraseBlock(at, migrated event.Time, b BlockID) (event.Time, error) {
	if int(b) >= len(d.blocks) {
		return 0, fmt.Errorf("%w: %d (have %d)", ErrBadBlock, b, len(d.blocks))
	}
	blk := &d.blocks[b]
	if blk.validCnt != 0 {
		return 0, fmt.Errorf("%w: block %d has %d valid pages", ErrLiveErase, b, blk.validCnt)
	}
	if d.cfg.EraseLimit > 0 && blk.eraseCnt >= d.cfg.EraseLimit {
		return 0, fmt.Errorf("%w: block %d at %d erases", ErrWornOut, b, blk.eraseCnt)
	}
	die := d.dec.DieOfBlock(b)
	start, end := d.dies[die].ReserveAfter(at, migrated, d.cfg.Latencies.Erase)
	d.tr.Span(obs.DieTrack(int(die)), obs.KDieErase, start, end, uint64(b))
	d.dieOps[die].BlockErases++
	// Two memclr calls instead of one fused loop: the compiler lowers
	// each clear to a runtime memclr, which the per-index loop's pair of
	// strided stores defeats. PageFree is the zero state.
	clear(blk.states)
	clear(blk.tags)
	blk.writePtr = 0
	blk.invalidCnt = 0
	blk.eraseCnt++
	d.stats.BlockErases++
	d.observe(end)
	return end, nil
}

// Tag returns the content stamp programmed into p. Free pages have tag 0.
func (d *Device) Tag(p PPN) (uint64, error) {
	if err := d.checkPPN(p); err != nil {
		return 0, err
	}
	b, idx := d.dec.Split(p)
	return d.blocks[b].tags[idx], nil
}

// PageStateOf returns the state of page p.
func (d *Device) PageStateOf(p PPN) (PageState, error) {
	if err := d.checkPPN(p); err != nil {
		return 0, err
	}
	b, idx := d.dec.Split(p)
	return d.blocks[b].states[idx], nil
}

// CountStates tallies pages by state across the device, an O(pages)
// integrity check used by tests.
func (d *Device) CountStates() (free, valid, invalid int) {
	for i := range d.blocks {
		b := &d.blocks[i]
		valid += b.validCnt
		invalid += b.invalidCnt
		free += len(b.states) - b.validCnt - b.invalidCnt
	}
	return free, valid, invalid
}

// DieStats returns the operation counts of one die.
func (d *Device) DieStats(die DieID) Stats { return d.dieOps[die] }

// MaxErase returns the highest per-block erase count (wear peak) and
// TotalErase the sum; together they characterize wear leveling.
func (d *Device) MaxErase() int {
	m := 0
	for i := range d.blocks {
		if d.blocks[i].eraseCnt > m {
			m = d.blocks[i].eraseCnt
		}
	}
	return m
}

// EraseSpread returns max-min per-block erase counts, a crude
// wear-leveling metric (0 is perfectly even).
func (d *Device) EraseSpread() int {
	if len(d.blocks) == 0 {
		return 0
	}
	mn, mx := d.blocks[0].eraseCnt, d.blocks[0].eraseCnt
	for i := range d.blocks {
		c := d.blocks[i].eraseCnt
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	return mx - mn
}
