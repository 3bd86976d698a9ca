// Package array models an all-flash array built from the simulated
// SSDs: RAID-0 striping across members and RAID-1 mirroring with
// optional GC-aware read steering (the request-steering idea of the
// authors' companion IPDPS'18 work). Arrays are where per-device GC
// tails compound — a request striped over N members stalls if any
// member is collecting — so shrinking GC, which is what CAGC does,
// pays superlinearly at array level ("The Tail at Scale", which the
// paper cites, is exactly this effect).
package array

import (
	"fmt"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
)

// Mode selects the array organization.
type Mode int

const (
	// RAID0 stripes the logical space across members.
	RAID0 Mode = iota
	// RAID1 mirrors every page on all members; reads pick one member.
	RAID1
)

func (m Mode) String() string {
	if m == RAID0 {
		return "raid0"
	}
	return "raid1"
}

// Config assembles an array.
type Config struct {
	// Mode is the organization (default RAID0).
	Mode Mode
	// Members is the number of SSDs (>= 2).
	Members int
	// MemberDevice configures each member's flash.
	MemberDevice flash.Config
	// MemberOptions configures each member's FTL scheme.
	MemberOptions ftl.Options
	// Utilization sizes each member's logical space, as in sim.Config.
	Utilization float64
	// GCAwareSteering lets RAID-1 reads avoid members whose GC horizon
	// covers the request's arrival (the steering policy under study);
	// without it reads round-robin.
	GCAwareSteering bool
	// StaggerGC offsets each member's GC watermark by 1.5 erase blocks
	// per member so mirrors do not collect in lockstep — the deliberate
	// GC desynchronization all-flash arrays use (the paper cites the
	// spatial-separation line of work). Identical mirrors receiving
	// identical writes otherwise trigger GC at the same instants,
	// leaving steering nothing to steer around.
	StaggerGC bool
}

// stripePages is the RAID-0 stripe unit in pages: one erase block of
// Table I's geometry.
const stripePages = 64

// Array is an assembled multi-SSD volume. Like the single-device
// simulator it is single-threaded and deterministic.
type Array struct {
	cfg     Config
	members []*ftl.FTL
	logical uint64 // volume logical pages
	rr      int    // round-robin read cursor (RAID1)

	steered uint64 // reads redirected away from a GC-busy member
}

// New builds the array.
func New(cfg Config) (*Array, error) {
	if cfg.Members < 2 {
		return nil, fmt.Errorf("array: need >= 2 members, got %d", cfg.Members)
	}
	if cfg.Utilization == 0 {
		cfg.Utilization = 0.55
	}
	a := &Array{cfg: cfg}
	for i := 0; i < cfg.Members; i++ {
		dev, err := flash.NewDevice(cfg.MemberDevice)
		if err != nil {
			return nil, err
		}
		logical := uint64(float64(cfg.MemberDevice.UserPages()) * cfg.Utilization)
		opts := cfg.MemberOptions
		if cfg.StaggerGC {
			// Watermark granularity is one block; sub-block offsets
			// would leave the integer trigger thresholds identical.
			opts.Watermark += 1.5 * float64(i) / float64(cfg.MemberDevice.Geometry.TotalBlocks())
		}
		f, err := ftl.New(dev, logical, opts)
		if err != nil {
			return nil, err
		}
		a.members = append(a.members, f)
	}
	per := a.members[0].LogicalPages()
	if cfg.Mode == RAID0 {
		// Expose only whole stripes: a member's trailing partial stripe
		// would map volume pages past its logical space.
		a.logical = per / stripePages * stripePages * uint64(cfg.Members)
		if a.logical == 0 {
			return nil, fmt.Errorf("array: stripe of %d pages exceeds a member's %d logical pages",
				stripePages, per)
		}
	} else {
		a.logical = per // mirrored: every member holds everything
	}
	return a, nil
}

// LogicalPages returns the volume's exported address-space size.
func (a *Array) LogicalPages() uint64 { return a.logical }

// SteeredReads returns how many reads GC-aware steering redirected.
func (a *Array) SteeredReads() uint64 { return a.steered }

// locate maps a volume page to (member, member-local page) in RAID0.
func (a *Array) locate(lpn uint64) (int, uint64) {
	stripe := lpn / stripePages
	member := int(stripe % uint64(a.cfg.Members))
	local := (stripe/uint64(a.cfg.Members))*stripePages + lpn%stripePages
	return member, local
}

func (a *Array) checkLPN(lpn uint64) error {
	if lpn >= a.logical {
		return fmt.Errorf("array: page %d out of %d", lpn, a.logical)
	}
	return nil
}

// Write stores one page. RAID0 writes one member; RAID1 writes all and
// completes when the slowest mirror finishes.
func (a *Array) Write(at event.Time, lpn uint64, fp dedup.Fingerprint) (event.Time, error) {
	if err := a.checkLPN(lpn); err != nil {
		return 0, err
	}
	if a.cfg.Mode == RAID0 {
		m, local := a.locate(lpn)
		return a.members[m].Write(at, local, fp)
	}
	var done event.Time
	for _, m := range a.members {
		end, err := m.Write(at, lpn, fp)
		if err != nil {
			return 0, err
		}
		if end > done {
			done = end
		}
	}
	return done, nil
}

// Read serves one page. RAID1 picks a mirror: GC-aware steering skips
// members whose GC horizon covers the arrival when any idle mirror
// exists; otherwise plain round-robin.
func (a *Array) Read(at event.Time, lpn uint64) (event.Time, error) {
	if err := a.checkLPN(lpn); err != nil {
		return 0, err
	}
	if a.cfg.Mode == RAID0 {
		m, local := a.locate(lpn)
		return a.members[m].Read(at, local)
	}
	pick := a.rr % len(a.members)
	a.rr++
	if a.cfg.GCAwareSteering && a.members[pick].GCBusyUntil() > at {
		for i := 1; i < len(a.members); i++ {
			alt := (pick + i) % len(a.members)
			if a.members[alt].GCBusyUntil() <= at {
				pick = alt
				a.steered++
				break
			}
		}
	}
	return a.members[pick].Read(at, lpn)
}

// Trim discards one page on the owning member (RAID0) or all mirrors.
func (a *Array) Trim(at event.Time, lpn uint64) (event.Time, error) {
	if err := a.checkLPN(lpn); err != nil {
		return 0, err
	}
	if a.cfg.Mode == RAID0 {
		m, local := a.locate(lpn)
		return a.members[m].Trim(at, local)
	}
	var done event.Time
	for _, m := range a.members {
		end, err := m.Trim(at, lpn)
		if err != nil {
			return 0, err
		}
		if end > done {
			done = end
		}
	}
	return done, nil
}

// CheckInvariants verifies every member.
func (a *Array) CheckInvariants() error {
	for i, m := range a.members {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}
	return nil
}
