// Package buffer implements a controller-DRAM write-back buffer in
// front of the FTL — the classic write-traffic reduction alternative
// the paper's related work cites (disk/NVM write caches, GCaR-class
// schemes). Hot overwrites coalesce in RAM instead of programming
// flash, at the cost of volatile state.
//
// The buffer exists so the repository can compare CAGC against the
// related-work lever on the same substrate: how much of CAGC's benefit
// could a plain write buffer have captured?
package buffer

import (
	"container/list"
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/ftl"
	"cagc/internal/obs"
)

// Stats counts buffer activity.
type Stats struct {
	WriteHits  uint64 // overwrites coalesced in RAM
	WriteMiss  uint64 // writes that allocated a buffer slot
	ReadHits   uint64 // reads served from RAM
	ReadMiss   uint64 // reads forwarded to flash
	Flushes    uint64 // pages written back to the FTL on eviction
	TrimDrops  uint64 // buffered pages discarded by trim
	FinalFlush uint64 // pages written back by Flush (drain)
}

type slot struct {
	lpn uint64
	fp  dedup.Fingerprint
}

// WriteBuffer is a fixed-capacity LRU write-back cache keyed by LPN.
// Like the FTL it fronts, it is single-threaded by design.
type WriteBuffer struct {
	f     *ftl.FTL
	cap   int
	lru   *list.List // front = most recent; element values are *slot
	index map[uint64]*list.Element
	ctrl  event.Time
	stats Stats
	tr    obs.Tracer // never nil; obs.Nop when tracing is off

	// dirty is true once the slot chain (lru list + index) has diverged
	// from whatever this buffer was last copied from. A clean chain lets
	// CopyFrom skip rebuilding the list and map — an allocation saved,
	// not bytes. Read misses leave the chain untouched and stay clean.
	dirty bool
}

// New wraps f with a write-back buffer of capPages pages.
func New(f *ftl.FTL, capPages int) (*WriteBuffer, error) {
	if capPages <= 0 {
		return nil, fmt.Errorf("buffer: capacity %d must be positive", capPages)
	}
	return &WriteBuffer{
		f:     f,
		cap:   capPages,
		lru:   list.New(),
		index: make(map[uint64]*list.Element, capPages),
		ctrl:  f.Options().CtrlLatency,
		tr:    obs.Nop,
	}, nil
}

// SetTracer installs the tracer buffer events are reported to (nil
// reverts to the no-op default). The wrapped FTL keeps its own tracer.
func (b *WriteBuffer) SetTracer(tr obs.Tracer) { b.tr = obs.Or(tr) }

// slotCopyBytes is the accounted copy cost of one buffered page: the
// slot value plus its list element and index entry.
const slotCopyBytes = 64

// CopyFrom makes b equal src, bound to f — the FTL copy it must flush
// into — and returns the bytes copied. Slot contents and LRU order are
// reproduced exactly, so b coalesces, evicts, and drains the same pages
// at the same times src would. The LRU is list+map backed, so the slot
// chain is rebuilt rather than copied flat (buffered configurations
// are rare in batch/fleet runs) — unless it never diverged from src
// (the dirty flag is clear, e.g. a replay that only missed reads), in
// which case only the scalars are refreshed. A zero WriteBuffer has no
// chain yet and always builds one: that is the clone.
func (b *WriteBuffer) CopyFrom(src *WriteBuffer, f *ftl.FTL) int {
	b.f = f
	b.cap = src.cap
	b.ctrl = src.ctrl
	b.stats = src.stats
	b.tr = src.tr
	if b.lru != nil && !b.dirty {
		return 0
	}
	b.lru = list.New()
	b.index = make(map[uint64]*list.Element, len(src.index))
	for el := src.lru.Front(); el != nil; el = el.Next() {
		s := *el.Value.(*slot)
		b.index[s.lpn] = b.lru.PushBack(&s)
	}
	b.dirty = false // b's chain equals src's again
	return len(src.index) * slotCopyBytes
}

// Stats returns a copy of the counters.
func (b *WriteBuffer) Stats() Stats { return b.stats }

// Len returns the number of buffered pages.
func (b *WriteBuffer) Len() int { return b.lru.Len() }

// FTL returns the wrapped translation layer.
func (b *WriteBuffer) FTL() *ftl.FTL { return b.f }

// Write buffers one page write. Overwrites of buffered pages coalesce;
// a full buffer evicts its least-recently-used page to flash in the
// background (the user response is not gated on the flush).
func (b *WriteBuffer) Write(at event.Time, lpn uint64, fp dedup.Fingerprint) (event.Time, error) {
	b.dirty = true
	if el, ok := b.index[lpn]; ok {
		el.Value.(*slot).fp = fp
		b.lru.MoveToFront(el)
		b.stats.WriteHits++
		b.tr.Instant(obs.TrackBuffer, obs.KBufHit, at, lpn)
		return at + b.ctrl, nil
	}
	b.stats.WriteMiss++
	b.index[lpn] = b.lru.PushFront(&slot{lpn: lpn, fp: fp})
	if b.lru.Len() > b.cap {
		el := b.lru.Back()
		s := el.Value.(*slot)
		b.lru.Remove(el)
		delete(b.index, s.lpn)
		end, err := b.f.Write(at, s.lpn, s.fp)
		if err != nil {
			return 0, fmt.Errorf("buffer: flushing lpn %d: %w", s.lpn, err)
		}
		// Detached: the background flush completes after the buffered
		// write has already answered at at+ctrl.
		b.tr.Span(obs.TrackBuffer, obs.KBufFlush, at, end, s.lpn)
		b.stats.Flushes++
	}
	return at + b.ctrl, nil
}

// Read serves from the buffer when the page is resident.
func (b *WriteBuffer) Read(at event.Time, lpn uint64) (event.Time, error) {
	if el, ok := b.index[lpn]; ok {
		b.dirty = true
		b.lru.MoveToFront(el)
		b.stats.ReadHits++
		b.tr.Instant(obs.TrackBuffer, obs.KBufHit, at, lpn)
		return at + b.ctrl, nil
	}
	b.stats.ReadMiss++
	return b.f.Read(at, lpn)
}

// Trim discards any buffered copy and trims the flash mapping.
func (b *WriteBuffer) Trim(at event.Time, lpn uint64) (event.Time, error) {
	if el, ok := b.index[lpn]; ok {
		b.dirty = true
		b.lru.Remove(el)
		delete(b.index, lpn)
		b.stats.TrimDrops++
	}
	return b.f.Trim(at, lpn)
}

// Flush drains every buffered page to flash (shutdown / barrier
// semantics) and returns the completion time of the last write.
func (b *WriteBuffer) Flush(at event.Time) (event.Time, error) {
	done := at
	if b.lru.Len() > 0 {
		b.dirty = true
	}
	for b.lru.Len() > 0 {
		el := b.lru.Back()
		s := el.Value.(*slot)
		b.lru.Remove(el)
		delete(b.index, s.lpn)
		end, err := b.f.Write(at, s.lpn, s.fp)
		if err != nil {
			return 0, fmt.Errorf("buffer: draining lpn %d: %w", s.lpn, err)
		}
		b.tr.Span(obs.TrackBuffer, obs.KBufFlush, at, end, s.lpn)
		b.stats.FinalFlush++
		if end > done {
			done = end
		}
	}
	return done, nil
}
