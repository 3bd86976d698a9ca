package ftl

import (
	"fmt"

	"cagc/internal/event"
)

// HashAt is when a page's content is fingerprinted (hashed and looked
// up in the index) — the one decision the paper's schemes differ in.
type HashAt uint8

const (
	// HashNever: no deduplication anywhere (Baseline).
	HashNever HashAt = iota
	// HashAtWrite: on the foreground write path (the Inline-Dedupe
	// comparator, Figures 2 and 11).
	HashAtWrite
	// HashAtMigrate: on valid pages as GC migrates them, the hash
	// engine pipelined with page copies and block erases (CAGC's first
	// prong and the paper's parallelization).
	HashAtMigrate
	// HashAtMigrateSerial: as HashAtMigrate, but each migrated page is
	// processed strictly serially — read, hash, program — the ablation
	// isolating the pipelining claim.
	HashAtMigrateSerial
)

// atMigrate reports whether GC fingerprints the pages it migrates.
func (h HashAt) atMigrate() bool { return h >= HashAtMigrate }

// Options selects which of the paper's mechanisms are active in an FTL
// instance. The three evaluated schemes are specific compositions (see
// the constructors below), but every knob can be set independently for
// ablation studies.
type Options struct {
	// HashAt is when content is fingerprinted (default HashNever).
	HashAt HashAt
	// HotCold places pages into the cold region when their reference
	// count exceeds RefThreshold (CAGC's second prong). Without it all
	// writes go to the hot region.
	HotCold bool
	// RefThreshold is the reference count above which a page is
	// considered cold (paper default 1).
	RefThreshold int
	// Policy selects GC victims. Defaults to GreedyPolicy.
	Policy VictimPolicy
	// Watermark is the free-block fraction below which GC triggers
	// (Table I: 20%).
	Watermark float64
	// CtrlLatency is the controller latency charged to metadata-only
	// operations (trims, unmapped reads, inline dedup hits after
	// hashing). Default 1 µs.
	CtrlLatency event.Time
	// WearLevelThreshold enables static wear leveling: when the
	// erase-count spread (max - min) reaches this value, the coldest
	// closed block is swapped back into circulation. Zero disables it
	// (the paper's configuration).
	WearLevelThreshold int
	// IndexCapacity caps the fingerprint index at this many published
	// fingerprints (controller-RAM limit, CAFTL-style cache
	// semantics): evicted fingerprints lose future dedup opportunities
	// but never break reference counting. Zero means unlimited.
	IndexCapacity int
	// MappingCache, when positive, models a DFTL-style cached mapping
	// table of that many entries: mapping misses on the user path stall
	// for translation-page flash reads (plus write-backs of dirty
	// victims). Zero (the paper's assumption) keeps the whole map in
	// RAM. Timing-only: translation pages do not consume data blocks,
	// and GC-side map updates are batched (not charged), as in DFTL's
	// lazy update scheme.
	MappingCache int
}

// Defaults returns options for the Baseline scheme: no dedup anywhere,
// greedy victim selection, Table-I watermark.
func Defaults() Options {
	return Options{
		RefThreshold: 1,
		Policy:       GreedyPolicy{},
		Watermark:    0.20,
		CtrlLatency:  1 * event.Microsecond,
	}
}

// BaselineOptions is the paper's Baseline scheme.
func BaselineOptions() Options { return Defaults() }

// InlineDedupeOptions is the paper's Inline-Dedupe comparator:
// fingerprints computed on the critical write path.
func InlineDedupeOptions() Options {
	o := Defaults()
	o.HashAt = HashAtWrite
	return o
}

// CAGCOptions is the paper's scheme: dedup embedded in GC with
// hash/copy/erase overlap, plus reference-count-based hot/cold
// placement.
func CAGCOptions() Options {
	o := Defaults()
	o.HashAt = HashAtMigrate
	o.HotCold = true
	return o
}

// normalize fills zero values with defaults and validates.
func (o Options) normalize() (Options, error) {
	d := Defaults()
	if o.Policy == nil {
		o.Policy = d.Policy
	}
	if o.RefThreshold == 0 {
		o.RefThreshold = d.RefThreshold
	}
	if o.Watermark == 0 {
		o.Watermark = d.Watermark
	}
	if o.CtrlLatency == 0 {
		o.CtrlLatency = d.CtrlLatency
	}
	if o.RefThreshold < 1 {
		return o, fmt.Errorf("ftl: RefThreshold %d < 1", o.RefThreshold)
	}
	if o.Watermark <= 0 || o.Watermark >= 0.9 {
		return o, fmt.Errorf("ftl: Watermark %v out of (0, 0.9)", o.Watermark)
	}
	if o.CtrlLatency < 0 {
		return o, fmt.Errorf("ftl: negative CtrlLatency")
	}
	if o.WearLevelThreshold < 0 {
		return o, fmt.Errorf("ftl: negative WearLevelThreshold")
	}
	if o.IndexCapacity < 0 {
		return o, fmt.Errorf("ftl: negative IndexCapacity")
	}
	if o.MappingCache < 0 {
		return o, fmt.Errorf("ftl: negative MappingCache")
	}
	if o.HashAt > HashAtMigrateSerial {
		return o, fmt.Errorf("ftl: unknown HashAt %d", o.HashAt)
	}
	return o, nil
}

// SchemeName renders the active mechanism combination for reports.
func (o Options) SchemeName() string {
	switch {
	case o.HashAt == HashAtWrite:
		return "Inline-Dedupe"
	case o.HashAt.atMigrate() && o.HotCold:
		return "CAGC"
	case o.HashAt.atMigrate():
		return "CAGC(no-placement)"
	default:
		return "Baseline"
	}
}
