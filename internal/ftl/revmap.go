package ftl

import "cagc/internal/dedup"

// revMap is the exact CID→LPN reverse map used by GC-time merges: for
// every CID, the doubly-linked chain of exactly the LPNs mapped to it.
// It is intrusive — a chain node *is* an LPN, so next/prev are indexed
// by LPN and heads by CID — which bounds the footprint at 8 B per
// logical page plus 4 B per CID no matter how long the run, makes every
// update O(1) and allocation-free once the tables cover the address
// space, and keeps copyFrom three flat copies. The tables grow lazily, so
// an FTL that never links (Baseline, Inline-Dedupe) holds nothing.
//
// Chain order is unobservable: the only reader, remapAll, performs one
// commuting mapping write per LPN.
type revMap struct {
	heads []uint32 // CID -> first LPN on its chain, nilNode = empty
	next  []uint32 // LPN -> following LPN on the same chain
	prev  []uint32 // LPN -> preceding LPN, nilNode at the head
}

// nilNode ends a chain. No LPN can equal it: ftl.New caps the logical
// space below the device's page count, itself at most 2^32.
const nilNode = ^uint32(0)

// growLinks extends s with nilNode so index i is valid.
func growLinks(s []uint32, i int) []uint32 {
	for i >= len(s) {
		s = append(s, nilNode)
	}
	return s
}

// move takes lpn off from's chain and pushes it on to's; NilCID on
// either side means lpn was, or becomes, unmapped.
func (m *revMap) move(lpn uint32, from, to dedup.CID) {
	if from != dedup.NilCID {
		p, n := m.prev[lpn], m.next[lpn]
		if p == nilNode {
			m.heads[from] = n
		} else {
			m.next[p] = n
		}
		if n != nilNode {
			m.prev[n] = p
		}
	}
	if to == dedup.NilCID {
		return
	}
	m.heads = growLinks(m.heads, int(to))
	m.next = growLinks(m.next, int(lpn))
	m.prev = growLinks(m.prev, int(lpn))
	h := m.heads[to]
	m.next[lpn], m.prev[lpn] = h, nilNode
	if h != nilNode {
		m.prev[h] = lpn
	}
	m.heads[to] = lpn
}

// splice moves from's whole chain, whose last node is tail, onto the
// front of to's. Both CIDs are live, so heads covers them.
func (m *revMap) splice(from, to dedup.CID, tail uint32) {
	h := m.heads[to]
	m.next[tail] = h
	if h != nilNode {
		m.prev[h] = tail
	}
	m.heads[to] = m.heads[from]
	m.heads[from] = nilNode
}

// copyFrom makes m equal src, reusing m's arrays, and returns the bytes
// copied: three flat copies, no per-chain work.
func (m *revMap) copyFrom(src *revMap) int {
	return copyAll(&m.heads, src.heads) + copyAll(&m.next, src.next) + copyAll(&m.prev, src.prev)
}
