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
	// states and tags are the state and content stamp of every page,
	// indexed by PPN: the page path indexes them without decoding the
	// address, and a copy is one copy() each. Block.states windows
	// states block by block.
	states []PageState
	tags   []uint64
	dies   []event.Timeline
	hash   *event.Pool // controller hash engines
	stats  Stats

	// dec decodes page and block numbers without dividing; built once
	// here and copied by the FTL (see Decoder).
	dec Decoder

	tr *obs.Recorder // nil when tracing is off

	now event.Time // latest operation time observed, for block ages
}

// NewDevice builds a device in the all-erased state.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	d := &Device{
		cfg:    cfg,
		blocks: make([]Block, g.TotalBlocks()),
		states: make([]PageState, g.TotalPages()),
		tags:   make([]uint64, g.TotalPages()),
		dies:   make([]event.Timeline, g.Dies()),
		hash:   event.NewPool(cfg.hashUnits()),
		dec:    newDecoder(g),
	}
	d.window()
	return d, nil
}

// window points every Block.states at its block's range of d.states.
func (d *Device) window() {
	ppb := len(d.states) / len(d.blocks)
	for i := range d.blocks {
		lo := i * ppb
		d.blocks[i].states = d.states[lo : lo+ppb : lo+ppb]
	}
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

// BlockRef is a block's address decoded once, for a pass over its pages
// by in-block index (GC's victim pass) with ReadIn, TagIn and InvalidateIn.
// It is valid until the device's next CopyFrom.
type BlockRef struct {
	ID   BlockID
	Die  DieID
	Base PPN // page 0 of the block
	Blk  *Block
}

// SetTracer installs the recorder die operations are reported to (nil
// turns tracing off).
func (d *Device) SetTracer(tr *obs.Recorder) { d.tr = tr }

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
	if uint64(p) >= uint64(len(d.states)) {
		return fmt.Errorf("%w: %d (have %d)", ErrBadPPN, p, len(d.states))
	}
	return nil
}

func (d *Device) observe(t event.Time) { d.now = max(d.now, t) }

// ReadPage reserves die time to read page p starting no earlier than at,
// returning the completion time. Reading a free page is an FTL bug and
// returns an error.
func (d *Device) ReadPage(at event.Time, p PPN) (event.Time, error) {
	if err := d.checkPPN(p); err != nil {
		return 0, err
	}
	return d.read(at, d.dec.DieOfBlock(d.dec.BlockOf(p)), p, d.states[p])
}

// ReadIn is ReadPage for page i of the block r names: the address is
// already decoded and in range, so only the page's state is checked.
func (d *Device) ReadIn(at event.Time, r *BlockRef, i int) (event.Time, error) {
	return d.read(at, r.Die, r.Base+PPN(i), r.Blk.states[i])
}

// read books die for reading page p, in state st; ReadPage and ReadIn
// share it.
func (d *Device) read(at event.Time, die DieID, p PPN, st PageState) (event.Time, error) {
	if st == PageFree {
		return 0, fmt.Errorf("%w: ppn %d", ErrNotProgrammed, p)
	}
	start, end := d.dies[die].Reserve(at, d.cfg.Latencies.Read)
	d.tr.Span(obs.DieTrack(int(die)), obs.KDieRead, start, end, uint64(p))
	d.stats.PageReads++
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
	d.states[p] = PageValid
	d.tags[p] = tag
	blk.writePtr++
	blk.validCnt++
	blk.lastProgram = int64(end)
	d.stats.PagePrograms++
	d.observe(end)
	return end
}

// Invalidate marks a valid page invalid. It costs no device time (a
// mapping-table update in controller RAM).
func (d *Device) Invalidate(p PPN) error { _, _, err := d.InvalidateCounted(p); return err }

// InvalidateCounted is Invalidate that also returns p's block and that
// block's invalid-page count after the call, so a caller indexing
// blocks by invalid count needs no second decode or lookup.
func (d *Device) InvalidateCounted(p PPN) (BlockID, int, error) {
	if err := d.checkPPN(p); err != nil {
		return 0, 0, err
	}
	b := d.dec.BlockOf(p)
	blk := &d.blocks[b]
	err := d.invalidate(blk, p)
	return b, blk.invalidCnt, err
}

// InvalidateIn is Invalidate for page i of the block r names: the
// address is decoded and in range, so only the page's state is checked.
func (d *Device) InvalidateIn(r *BlockRef, i int) error { return d.invalidate(r.Blk, r.Base+PPN(i)) }

// invalidate marks page p of blk invalid; InvalidateCounted and
// InvalidateIn share it.
func (d *Device) invalidate(blk *Block, p PPN) error {
	if st := d.states[p]; st != PageValid {
		return fmt.Errorf("%w: ppn %d is %v", ErrNotInvalid, p, st)
	}
	d.states[p] = PageInvalid
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
	// Two memclr calls instead of one fused loop: the compiler lowers
	// each clear to a runtime memclr, which the per-index loop's pair of
	// strided stores defeats. PageFree is the zero state.
	clear(blk.states)
	lo := d.dec.PageOf(b, 0)
	clear(d.tags[lo : lo+PPN(len(blk.states))])
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
	return d.tags[p], nil
}

// TagIn is Tag for page i of the block r names.
func (d *Device) TagIn(r *BlockRef, i int) uint64 { return d.tags[r.Base+PPN(i)] }

// PageStateOf returns the state of page p.
func (d *Device) PageStateOf(p PPN) (PageState, error) {
	if err := d.checkPPN(p); err != nil {
		return 0, err
	}
	return d.states[p], nil
}

// Pages returns the device's page states and content stamps, indexed
// by PPN. The slices alias the device's own arrays: callers read them
// (an integrity walk over every page) and must not write them.
func (d *Device) Pages() ([]PageState, []uint64) { return d.states, d.tags }

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
