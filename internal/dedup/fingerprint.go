// Package dedup implements the deduplication substrate used by both
// the Inline-Dedupe comparator and CAGC: content fingerprints, a
// fingerprint index mapping content to its single stored flash page,
// and reference counting (how many logical pages share one physical
// page).
//
// The design follows CAFTL's two-level mapping: logical pages whose
// content has been hashed map to a content ID (CID); the CID carries the
// physical page number and the reference count. Relocating content
// during GC updates one CID entry regardless of how many logical pages
// share it. Content nobody has hashed never gets a CID: the FTL maps it
// page to page (see ftl's private pages).
package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
)

// Fingerprint identifies page content. Trace records carry fingerprints
// directly (like the FIU traces' per-request MD5s); two pages are
// duplicates iff their fingerprints are equal. 64 bits keeps the index
// compact; the simulator models the *latency* of hashing separately
// (the hash-engine parameter), so the digest choice does not affect
// timing results.
type Fingerprint uint64

// Zero is the fingerprint of "no content". Valid content never hashes
// to Zero because the constructors below remap it.
const Zero Fingerprint = 0

// Of fingerprints a page's content with FNV-1a, the fast path used by
// workload generators.
func Of(data []byte) Fingerprint {
	h := fnv.New64a()
	h.Write(data)
	return nonzero(Fingerprint(h.Sum64()))
}

// OfStrong fingerprints content with SHA-256 folded to 64 bits, for
// callers that want a cryptographic digest (the content-store example).
func OfStrong(data []byte) Fingerprint {
	sum := sha256.Sum256(data)
	return nonzero(Fingerprint(binary.LittleEndian.Uint64(sum[:8])))
}

// OfUint64 derives a fingerprint from a synthetic content identifier,
// used by trace generators that model content popularity without
// materializing page payloads. It applies a 64-bit finalizer
// (SplitMix64) so that sequential content IDs spread uniformly.
func OfUint64(x uint64) Fingerprint {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return nonzero(Fingerprint(x))
}

func nonzero(f Fingerprint) Fingerprint {
	if f == Zero {
		return 1
	}
	return f
}
