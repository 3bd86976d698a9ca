package flash

import "fmt"

// PageState is the lifecycle state of one physical page.
type PageState uint8

const (
	// PageFree means erased and programmable.
	PageFree PageState = iota
	// PageValid means programmed and referenced by live data.
	PageValid
	// PageInvalid means programmed but superseded; space is reclaimed
	// by erasing the containing block.
	PageInvalid
)

func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Block is the bookkeeping for one erase block. All mutation goes
// through Device so counters stay consistent.
type Block struct {
	states []PageState // this block's window of Device.states

	writePtr   int // next programmable page index (NAND programs in order)
	validCnt   int
	invalidCnt int
	eraseCnt   int

	// lastProgram is the device time of the most recent program into
	// this block, used by the cost-benefit victim policy as "age".
	lastProgram int64
}

// Valid returns the number of valid pages.
func (b *Block) Valid() int { return b.validCnt }

// Invalid returns the number of invalid pages.
func (b *Block) Invalid() int { return b.invalidCnt }

// Free returns the number of never-programmed (erased) pages.
func (b *Block) Free() int { return len(b.states) - b.writePtr }

// Full reports whether every page has been programmed since last erase.
func (b *Block) Full() bool { return b.writePtr == len(b.states) }

// Erases returns how many times the block has been erased.
func (b *Block) Erases() int { return b.eraseCnt }

// LastProgram returns the device time of the last program operation.
func (b *Block) LastProgram() int64 { return b.lastProgram }

// States returns the block's page states by in-block index, read-only.
func (b *Block) States() []PageState { return b.states }
