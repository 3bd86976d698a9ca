package flash

import (
	"fmt"
	"math/bits"
)

// maxDecodablePages bounds the devices a Decoder addresses exactly:
// page and block numbers must be below 2^32 (16 TiB at 4 KiB pages;
// Table I is 21 M pages). Config.Validate enforces it.
const maxDecodablePages = 1 << 32

// Decoder splits flat page and block numbers into (block, in-block
// index) and die without a hardware divide. The page path decodes
// about a dozen addresses per migrated page, and both divisors
// (PagesPerBlock, blocks per die) are runtime values the compiler
// cannot strength-reduce, so each quotient is taken by multiplying with
// a precomputed reciprocal (Granlund-Montgomery / Lemire's fastdiv, in
// the round-down form so that d = 1 needs no special case):
//
//	M = floor((2^64-1)/d)    q = hi64(M*(n+1))    r = n - q*d
//
// Exactness for 1 <= d <= 2^32, 0 <= n < 2^32: let e = 2^64 - M*d, so
// 1 <= e <= d, and write n = q*d + r. Then M*(n+1)/2^64 =
// q + (r+1-t)/d with t = e*(n+1)/2^64, and 0 < t <= 1 because
// e*(n+1) <= 2^32 * 2^32. Since 1 <= r+1 <= d, 0 <= r+1-t < d, so the
// floor is q. One code path serves every geometry, power of two or not.
//
// A Decoder is immutable; Device and FTL each hold a copy. Its tests
// compare it against plain division (Geometry's BlockOf, PageIndexOf
// and DieOfBlock in decode_test.go).
type Decoder struct {
	pagesPerBlock uint64 // the page divisor; blocks per die is the other
	mPage, mBlock uint64 // the two reciprocals
}

// checkDecodable rejects a (dimension-wise valid) geometry whose page
// or block count exceeds the decoder's exact range. The product is
// taken stepwise so absurd dimensions cannot overflow the check; blocks
// never outnumber pages, so bounding the page count bounds both.
func (g Geometry) checkDecodable() error {
	pages := uint64(1)
	for _, dim := range [...]int{g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan, g.PagesPerBlock} {
		if uint64(dim) > maxDecodablePages/pages {
			return fmt.Errorf("flash: geometry %dch x %ddie x %dpl x %dblk x %dpg has more than 2^32 pages, beyond the address decoder's exact range",
				g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan, g.PagesPerBlock)
		}
		pages *= uint64(dim)
	}
	return nil
}

func newDecoder(g Geometry) Decoder {
	ppb := uint64(g.PagesPerBlock)
	bpd := uint64(g.PlanesPerDie) * uint64(g.BlocksPerPlan)
	return Decoder{
		pagesPerBlock: ppb, mPage: ^uint64(0) / ppb,
		mBlock: ^uint64(0) / bpd,
	}
}

// Split returns the block containing p and p's in-block page index.
// p must be a valid page number (below 2^32); every caller on the page
// path has range-checked it.
func (x *Decoder) Split(p PPN) (BlockID, int) {
	b := x.BlockOf(p)
	return b, int(uint64(p) - uint64(b)*x.pagesPerBlock)
}

// BlockOf returns the block containing p.
func (x *Decoder) BlockOf(p PPN) BlockID {
	q, _ := bits.Mul64(x.mPage, uint64(p)+1)
	return BlockID(q)
}

// DieOfBlock returns the die block b lives on.
func (x *Decoder) DieOfBlock(b BlockID) DieID {
	q, _ := bits.Mul64(x.mBlock, uint64(b)+1)
	return DieID(q)
}

// PageOf returns the PPN of page pg within block b.
func (x *Decoder) PageOf(b BlockID, pg int) PPN {
	return PPN(uint64(b)*x.pagesPerBlock + uint64(pg))
}
