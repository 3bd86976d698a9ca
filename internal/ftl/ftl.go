package ftl

import (
	"errors"
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/metrics"
	"cagc/internal/obs"
)

// Region labels the two block groups of the paper's placement scheme.
type Region uint8

const (
	// Hot holds pages with reference count <= threshold (frequently
	// invalidated).
	Hot Region = iota
	// Cold holds pages with reference count > threshold (rarely
	// invalidated).
	Cold
)

func (r Region) String() string {
	if r == Hot {
		return "hot"
	}
	return "cold"
}

// blockState tracks what the FTL is doing with each block.
type blockState uint8

const (
	blkFree   blockState = iota // erased, in a free list
	blkOpen                     // a write frontier
	blkClosed                   // fully programmed, GC-eligible
	blkVictim                   // closed and being collected: out of the victim index
	blkDead                     // worn out and retired (bad block)
)

// Errors surfaced by FTL operations.
var (
	ErrBadLPN     = errors.New("ftl: logical page out of range")
	ErrDeviceFull = errors.New("ftl: no free pages and nothing to reclaim")
	ErrCorruption = errors.New("ftl: content tag mismatch (mapping corruption)")
)

// FTL is one SSD translation layer instance bound to a flash device.
// It is single-threaded by design: the discrete-event simulator calls
// it in virtual-time order.
type FTL struct {
	dev  *flash.Device
	opts Options

	// Hot-path caches of per-device constants: the geometry, the
	// device's division-free address decoder (every invalidation and
	// migration decodes a page number), the die count, and the
	// watermark check precomputed as an integer free-block threshold.
	geo  flash.Geometry
	dec  flash.Decoder
	dies int
	// gcFreeOK is the smallest free-block count that satisfies the GC
	// watermark — exactly the set of counts for which
	// float64(freeCount)/totalBlocks >= Watermark holds, so the integer
	// compare preserves the float boundary bit-for-bit.
	gcFreeOK int

	idx     *dedup.Index
	mapping []slot // LPN -> CID, or the tagged PPN of its private page
	owners  []slot // PPN -> owning CID, or the tagged LPN of a private page
	// private counts the private pages (see slot): valid pages no CID
	// describes. LiveContents is the index's live CIDs plus these.
	private int
	// rev is the exact reverse map for GC-time merges (see revMap). Its
	// only reader is remapAll, which runs when GC hashes (HashAtMigrate*),
	// so Baseline and Inline-Dedupe never link into it and it stays
	// empty; private pages are on no chain.
	rev revMap

	blocks    []blockMeta
	freeByDie [][]flash.BlockID
	freeCount int
	hotRR     int        // round-robin die cursor for the hot region
	cold      frontier   // the cold region's one write frontier
	hot       []frontier // the hot region's write frontier per die

	// vix indexes the closed blocks holding invalid pages by how many
	// they hold (see victimIndex), so selecting a GC victim never scans
	// the device.
	vix victimIndex

	inGC        bool
	gcBusyUntil event.Time // horizon of the latest GC flash operation
	// gcHashEnd is the completion horizon of the current collection's
	// hash reservations. Trace-only: under HashAtMigrate a fingerprint can
	// outlive both the erase and the last program, and the gc.collect
	// span must still enclose it. Never feeds back into simulated time.
	gcHashEnd event.Time
	cmt       *cmt // nil unless Options.MappingCache > 0
	stats     Stats
	tr        *obs.Recorder // nil when tracing is off

	// RefDist records the peak reference count of every page at the
	// moment it becomes invalid (Figure 6).
	RefDist metrics.RefcountDist

	logicalPages uint64
}

// slot is one word of the two translation tables. Content the host
// wrote and nobody has hashed is a private page: it has one reference by
// construction, so it needs no CID — mapping[lpn] holds its PPN and
// owners[ppn] its LPN, each tagged with privateTag, and the dedup index,
// the reverse map and the refcount table never see it (CAFTL's
// two-level map, indirection only where content is shared). Every other
// slot is a CID. nilSlot, the all-ones word, is empty; it carries the
// tag bit too, so test for it first.
type slot uint32

const (
	privateTag = slot(1) << 31
	nilSlot    = slot(dedup.NilCID)
)

// maxPages bounds a device's page count: a tagged page number must stay
// clear of nilSlot, and an untagged CID (at most one per valid page)
// clear of the tag.
const maxPages = 1<<31 - 1

func cidSlot(c dedup.CID) slot { return slot(c) }

// privateSlot tags a PPN (in mapping) or an LPN (in owners).
func privateSlot(n uint64) slot { return slot(n) | privateTag }

// private reports whether a non-nil slot is a private page.
func (s slot) private() bool { return s&privateTag != 0 }

func (s slot) cid() dedup.CID { return dedup.CID(s) }

// page is a private slot's page number: a PPN in mapping, an LPN in
// owners.
func (s slot) page() uint64 { return uint64(s &^ privateTag) }

// chain is the reverse-map chain s is on: its CID, NilCID for a private
// or empty slot.
func (s slot) chain() dedup.CID {
	if s&privateTag != 0 {
		return dedup.NilCID
	}
	return dedup.CID(s)
}

func (s slot) String() string {
	switch {
	case s == nilSlot:
		return "nil"
	case s.private():
		return fmt.Sprintf("private %d", s.page())
	}
	return fmt.Sprintf("CID %d", uint32(s))
}

// checkPages rejects a geometry whose page numbers do not fit a slot.
func checkPages(g flash.Geometry) error {
	if n := g.TotalPages(); n >= maxPages {
		return fmt.Errorf("ftl: %d pages do not fit the mapping word (limit %d)", n, maxPages-1)
	}
	return nil
}

type blockMeta struct {
	state  blockState
	region Region
}

// frontier is one write-frontier slot: the block its region (and, for
// the hot region, its die) is filling. block is meaningful only while
// open is set; a slot never holds a full block (see program).
type frontier struct {
	block flash.BlockID
	open  bool
}

// New builds an FTL over dev exposing logicalPages of address space.
// logicalPages must leave enough physical headroom for GC to make
// progress (at most ~95% of the device's user-visible pages).
func New(dev *flash.Device, logicalPages uint64, opts Options) (*FTL, error) {
	o, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if logicalPages == 0 {
		return nil, fmt.Errorf("ftl: zero logical pages")
	}
	cfg := dev.Config()
	if err := checkPages(cfg.Geometry); err != nil {
		return nil, err
	}
	// The free-block fraction can never exceed (total-logical)/total
	// once the address space is fully mapped (without dedup every
	// mapped page occupies one flash page). If that ceiling is at or
	// below the GC watermark, GC can never reach its refill target and
	// every write degenerates into a futile reclaim scan — a
	// misconfiguration, rejected here.
	total := uint64(cfg.Geometry.TotalPages())
	if ceiling := uint64(float64(total) * (1 - o.Watermark - 0.05)); logicalPages > ceiling {
		return nil, fmt.Errorf(
			"ftl: %d logical pages on a %d-page device leaves the free ceiling below the %.0f%% GC watermark (max %d logical pages)",
			logicalPages, total, o.Watermark*100, ceiling)
	}
	g := dev.Geometry()
	f := &FTL{
		dev:          dev,
		opts:         o,
		geo:          g,
		dec:          dev.Decoder(),
		dies:         g.Dies(),
		idx:          dedup.NewIndex(),
		mapping:      make([]slot, logicalPages),
		owners:       make([]slot, g.TotalPages()),
		blocks:       make([]blockMeta, g.TotalBlocks()),
		vix:          newVictimIndex(g.TotalBlocks(), g.PagesPerBlock),
		freeByDie:    make([][]flash.BlockID, g.Dies()),
		hot:          make([]frontier, g.Dies()),
		logicalPages: logicalPages,
	}
	for i := range f.mapping {
		f.mapping[i] = nilSlot
	}
	for i := range f.owners {
		f.owners[i] = nilSlot
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		die := f.dec.DieOfBlock(flash.BlockID(b))
		f.freeByDie[die] = append(f.freeByDie[die], flash.BlockID(b))
	}
	f.freeCount = g.TotalBlocks()
	f.gcFreeOK = gcFreeThreshold(g.TotalBlocks(), o.Watermark)
	if o.IndexCapacity > 0 {
		f.idx.SetCapacity(o.IndexCapacity)
	}
	if o.MappingCache > 0 {
		f.cmt = newCMT(o.MappingCache)
	}
	return f, nil
}

// Options returns the normalized options in effect.
func (f *FTL) Options() Options { return f.opts }

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// Device returns the underlying flash device.
func (f *FTL) Device() *flash.Device { return f.dev }

// SetTracer installs the recorder FTL events are reported to and
// forwards it to the flash device (nil turns tracing off in both).
func (f *FTL) SetTracer(tr *obs.Recorder) {
	f.tr = tr
	f.dev.SetTracer(tr)
}

// Index exposes the dedup index (read-mostly; used by reports and the
// Figure-6 analysis). It holds hashed content only: private pages are
// not in it (see LiveContents).
func (f *FTL) Index() *dedup.Index { return f.idx }

// LiveContents returns the number of distinct stored contents — the
// index's live CIDs plus the private pages — which is the number of
// valid flash pages.
func (f *FTL) LiveContents() int { return f.idx.Live() + f.private }

// LogicalPages returns the exported address-space size.
func (f *FTL) LogicalPages() uint64 { return f.logicalPages }

// GCBusyUntil returns the virtual time up to which garbage-collection
// flash operations have been scheduled. A request arriving before this
// horizon contends with GC — it falls inside a "GC period" in the
// paper's Figure-11 sense.
func (f *FTL) GCBusyUntil() event.Time { return f.gcBusyUntil }

// FreeBlockFraction returns the free share of all blocks.
func (f *FTL) FreeBlockFraction() float64 {
	return float64(f.freeCount) / float64(len(f.blocks))
}

func (f *FTL) checkLPN(lpn uint64) error {
	if lpn >= f.logicalPages {
		return fmt.Errorf("%w: %d (have %d)", ErrBadLPN, lpn, f.logicalPages)
	}
	return nil
}

// bind points lpn at s (nilSlot unmaps it), moving it between reverse-
// map chains when the scheme can read them (see rev).
func (f *FTL) bind(lpn uint64, s slot) {
	if f.opts.HashAt.atMigrate() {
		f.rev.move(uint32(lpn), f.mapping[lpn].chain(), s.chain())
	}
	f.mapping[lpn] = s
}

// Write services one page-sized user write of content fp to lpn at
// arrival time at. It returns the completion time.
func (f *FTL) Write(at event.Time, lpn uint64, fp dedup.Fingerprint) (event.Time, error) {
	if err := f.checkLPN(lpn); err != nil {
		return 0, err
	}
	f.stats.UserWritePages++
	if err := f.maybeGC(at); err != nil {
		return 0, err
	}
	at = f.chargeMapAccess(at, lpn, true)

	old := f.mapping[lpn]

	if f.opts.HashAt == HashAtWrite {
		return f.writeInline(at, lpn, fp, old)
	}

	// Baseline / CAGC write path: program immediately; the page is
	// private (never hashed on the foreground path).
	ppn, end, err := f.program(Hot, at, at, fp)
	if err != nil {
		return 0, err
	}
	f.owners[ppn] = privateSlot(lpn)
	f.private++
	if old != nilSlot {
		if err := f.unbindOld(old); err != nil {
			return 0, err
		}
	}
	f.bind(lpn, privateSlot(uint64(ppn)))
	f.stats.UserPrograms++
	return end, nil
}

// writeInline is the Inline-Dedupe write path: hash + lookup before any
// flash program. Every page it stores is indexed, so every slot it
// writes is a CID.
func (f *FTL) writeInline(at event.Time, lpn uint64, fp dedup.Fingerprint, old slot) (event.Time, error) {
	hashEnd := f.reserveHash(at, at)
	if c2, hit := f.idx.Lookup(fp); hit {
		// Redundant write: metadata update only.
		if _, err := f.idx.IncRef(c2); err != nil {
			return 0, err
		}
		if old != nilSlot {
			if err := f.unbindOld(old); err != nil {
				return 0, err
			}
		}
		f.bind(lpn, cidSlot(c2))
		f.stats.InlineDupHits++
		return hashEnd + f.opts.CtrlLatency, nil
	}
	ppn, end, err := f.program(Hot, at, hashEnd, fp)
	if err != nil {
		return 0, err
	}
	c, err := f.idx.Insert(fp, ppn)
	if err != nil {
		return 0, err
	}
	f.owners[ppn] = cidSlot(c)
	if old != nilSlot {
		if err := f.unbindOld(old); err != nil {
			return 0, err
		}
	}
	f.bind(lpn, cidSlot(c))
	f.stats.UserPrograms++
	return end, nil
}

// unbindOld drops the reference an overwritten/trimmed LPN held: a
// private page dies outright, shared content when its count reaches 0.
func (f *FTL) unbindOld(old slot) error {
	var ppn flash.PPN
	peak := 1
	if old.private() {
		ppn = flash.PPN(old.page())
		f.private--
	} else {
		// Remember the PPN before the DecRef so a death can invalidate
		// it without scanning.
		var err error
		if ppn, err = f.idx.PPN(old.cid()); err != nil {
			return err
		}
		ref, p, err := f.idx.DecRef(old.cid())
		if err != nil {
			return err
		}
		if ref > 0 {
			return nil
		}
		peak = p
	}
	if err := f.invalidatePage(ppn); err != nil {
		return fmt.Errorf("ftl: invalidating dead content: %w", err)
	}
	f.owners[ppn] = nilSlot
	f.RefDist.Add(peak)
	return nil
}

// Read services one page-sized user read. Unmapped pages are served
// from the controller (all-zero page semantics).
func (f *FTL) Read(at event.Time, lpn uint64) (event.Time, error) {
	if err := f.checkLPN(lpn); err != nil {
		return 0, err
	}
	f.stats.UserReadPages++
	at = f.chargeMapAccess(at, lpn, false)
	ppn, mapped, err := f.locate(lpn)
	if err != nil {
		return 0, err
	}
	if !mapped {
		return at + f.opts.CtrlLatency, nil
	}
	end, err := f.dev.ReadPage(at, ppn)
	if err != nil {
		return 0, err
	}
	if err := f.verify(lpn, ppn); err != nil {
		return 0, err
	}
	return end, nil
}

// locate returns the page holding lpn's content; mapped is false when
// lpn is unmapped.
func (f *FTL) locate(lpn uint64) (ppn flash.PPN, mapped bool, err error) {
	s := f.mapping[lpn]
	switch {
	case s == nilSlot:
		return flash.InvalidPPN, false, nil
	case s.private():
		return flash.PPN(s.page()), true, nil
	}
	ppn, err = f.idx.PPN(s.cid())
	return ppn, true, err
}

// verify is Read's integrity check of the page ppn that lpn located. A
// private page's owner back-pointer (the LPN real SSDs keep in a page's
// out-of-band area) must name lpn; shared content's stored tag must
// match its CID's fingerprint. A mismatch means the mapping or GC
// corrupted data.
func (f *FTL) verify(lpn uint64, ppn flash.PPN) error {
	s := f.mapping[lpn]
	if s.private() {
		if owner := f.owners[ppn]; owner != privateSlot(lpn) {
			return fmt.Errorf("%w: lpn %d ppn %d owned by %v", ErrCorruption, lpn, ppn, owner)
		}
		return nil
	}
	tag, err := f.dev.Tag(ppn)
	if err != nil {
		return err
	}
	fp, err := f.idx.FP(s.cid())
	if err != nil {
		return err
	}
	if tag != uint64(fp) {
		return fmt.Errorf("%w: lpn %d ppn %d tag %#x fp %#x", ErrCorruption, lpn, ppn, tag, uint64(fp))
	}
	return nil
}

// Trim discards lpn (file delete): the reference is dropped, and the
// page is invalidated only if this was the last reference — the
// deduplication semantics of Section III-C.
func (f *FTL) Trim(at event.Time, lpn uint64) (event.Time, error) {
	if err := f.checkLPN(lpn); err != nil {
		return 0, err
	}
	f.stats.UserTrimPages++
	at = f.chargeMapAccess(at, lpn, true)
	s := f.mapping[lpn]
	if s == nilSlot {
		return at + f.opts.CtrlLatency, nil
	}
	if err := f.unbindOld(s); err != nil {
		return 0, err
	}
	f.bind(lpn, nilSlot)
	return at + f.opts.CtrlLatency, nil
}

// reserveHash books the controller hash engine for one fingerprint
// computation whose input is available at dataReady.
func (f *FTL) reserveHash(at, dataReady event.Time) event.Time {
	lat := f.dev.Config().Latencies.Hash
	start, end, unit := f.dev.HashEngine().ReserveAfterIdx(at, dataReady, lat)
	kind := obs.KHashInline
	if f.inGC {
		kind = obs.KHashGC
		if end > f.gcHashEnd {
			f.gcHashEnd = end
		}
	}
	f.tr.Span(obs.HashTrack(unit), kind, start, end, 0)
	f.stats.HashOps++
	return end
}
