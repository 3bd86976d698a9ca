package array

import (
	"math/rand"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
)

func memberDevice() flash.Config {
	return flash.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerPlan: 8, PagesPerBlock: 8, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.11,
	}
}

func newArray(t *testing.T, cfg Config) *Array {
	t.Helper()
	if cfg.Members == 0 {
		cfg.Members = 4
	}
	if cfg.MemberDevice.Geometry.PageSize == 0 {
		cfg.MemberDevice = memberDevice()
	}
	if cfg.MemberOptions.Policy == nil {
		cfg.MemberOptions = ftl.BaselineOptions()
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func fp(i uint64) dedup.Fingerprint { return dedup.OfUint64(i) }

func TestNewValidation(t *testing.T) {
	cfg := Config{Members: 1, MemberDevice: memberDevice(), MemberOptions: ftl.BaselineOptions()}
	if _, err := New(cfg); err == nil {
		t.Fatal("single-member array accepted")
	}
	cfg.Members = 2
	cfg.MemberDevice.Geometry.PageSize = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid member device accepted")
	}
}

func TestRAID0AddressSpaceAndPlacement(t *testing.T) {
	a := newArray(t, Config{Mode: RAID0})
	per := a.members[0].LogicalPages()
	wholeStripes := per / stripePages * stripePages
	if wholeStripes == 0 || a.LogicalPages() != wholeStripes*4 {
		t.Fatalf("volume pages = %d, want %d (whole stripes only)", a.LogicalPages(), wholeStripes*4)
	}
	// Consecutive stripes land on consecutive members.
	m0, l0 := a.locate(0)
	m1, l1 := a.locate(stripePages)
	m2, _ := a.locate(2 * stripePages)
	if m0 != 0 || m1 != 1 || m2 != 2 {
		t.Fatalf("stripe members = %d,%d,%d", m0, m1, m2)
	}
	if l0 != 0 || l1 != 0 {
		t.Fatalf("locals = %d,%d", l0, l1)
	}
	// Round-trip: every volume page maps within its member's space.
	for lpn := uint64(0); lpn < a.LogicalPages(); lpn += 7 {
		m, local := a.locate(lpn)
		if m < 0 || m >= 4 || local >= per {
			t.Fatalf("lpn %d -> member %d local %d", lpn, m, local)
		}
	}
}

func TestRAID0WriteReadTrim(t *testing.T) {
	a := newArray(t, Config{Mode: RAID0})
	end, err := a.Write(0, 5, fp(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(end, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Trim(end, 5); err != nil {
		t.Fatal(err)
	}
	// Exactly one member saw the traffic.
	touched := 0
	for _, m := range a.members {
		if m.Stats().UserWritePages > 0 {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("%d members touched by one write", touched)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Bounds.
	if _, err := a.Write(0, a.LogicalPages(), fp(1)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if _, err := a.Read(0, a.LogicalPages()); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := a.Trim(0, a.LogicalPages()); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
}

func TestRAID1MirrorsWrites(t *testing.T) {
	a := newArray(t, Config{Mode: RAID1, Members: 2})
	if a.LogicalPages() != a.members[0].LogicalPages() {
		t.Fatal("mirrored volume must expose one member's space")
	}
	if _, err := a.Write(0, 3, fp(9)); err != nil {
		t.Fatal(err)
	}
	for i, m := range a.members {
		if m.Stats().UserWritePages != 1 {
			t.Fatalf("member %d saw %d writes", i, m.Stats().UserWritePages)
		}
	}
	// Trim reaches all mirrors too.
	if _, err := a.Trim(1, 3); err != nil {
		t.Fatal(err)
	}
	for i, m := range a.members {
		if m.Stats().UserTrimPages != 1 {
			t.Fatalf("member %d saw %d trims", i, m.Stats().UserTrimPages)
		}
	}
}

func TestRAID1ReadsSpread(t *testing.T) {
	a := newArray(t, Config{Mode: RAID1, Members: 2})
	if _, err := a.Write(0, 0, fp(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := a.Read(event.Second, 0); err != nil {
			t.Fatal(err)
		}
	}
	r0 := a.members[0].Stats().UserReadPages
	r1 := a.members[1].Stats().UserReadPages
	if r0 != 5 || r1 != 5 {
		t.Fatalf("round-robin reads split %d/%d", r0, r1)
	}
}

// churnArray drives a mirrored array hard enough for member GC to run.
func churnArray(t *testing.T, a *Array, writes int, pool uint64, seed int64) event.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := event.Time(0)
	logical := int64(a.LogicalPages())
	for i := 0; i < writes; i++ {
		lpn := uint64(rng.Int63n(logical))
		var err error
		var end event.Time
		if rng.Intn(4) == 0 {
			end, err = a.Read(now, lpn)
		} else {
			end, err = a.Write(now, lpn, fp(rng.Uint64()%pool))
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		now = end
	}
	return now
}

func TestGCAwareSteeringRedirectsReads(t *testing.T) {
	cfg := Config{Mode: RAID1, Members: 2, GCAwareSteering: true, StaggerGC: true}
	a := newArray(t, cfg)
	churnArray(t, a, int(a.LogicalPages())*8, 1<<60, 61)
	if a.SteeredReads() == 0 {
		t.Fatal("steering never redirected a read despite GC churn")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSteeringNeverFiresWhenDisabled(t *testing.T) {
	a := newArray(t, Config{Mode: RAID1, Members: 2})
	churnArray(t, a, int(a.LogicalPages())*6, 1<<60, 62)
	if a.SteeredReads() != 0 {
		t.Fatal("steering fired while disabled")
	}
}

// RAID0 sends each page write to exactly one member: the members'
// write counters add up to the volume's writes, and GC runs somewhere.
func TestArrayStatsAggregate(t *testing.T) {
	a := newArray(t, Config{Mode: RAID0})
	rng := rand.New(rand.NewSource(63))
	writes := int(a.LogicalPages()) * 6
	now := event.Time(0)
	for i := 0; i < writes; i++ {
		end, err := a.Write(now, uint64(rng.Int63n(int64(a.LogicalPages()))), fp(rng.Uint64()))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = end
	}
	var sum, erased uint64
	for _, m := range a.members {
		sum += m.Stats().UserWritePages
		erased += m.Stats().BlocksErased
	}
	if sum != uint64(writes) {
		t.Fatalf("member writes sum to %d, the volume took %d", sum, writes)
	}
	if erased == 0 {
		t.Fatal("no GC anywhere in the array")
	}
}

func TestModeString(t *testing.T) {
	if RAID0.String() != "raid0" || RAID1.String() != "raid1" {
		t.Fatal("mode strings")
	}
}
