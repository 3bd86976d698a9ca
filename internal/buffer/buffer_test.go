package buffer

import (
	"math/rand"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
)

func newBuffered(t *testing.T, capPages int) *WriteBuffer {
	t.Helper()
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerPlan: 16, PagesPerBlock: 8, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.11,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.New(dev, uint64(float64(cfg.UserPages())*0.78), ftl.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(f, capPages)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fp(i uint64) dedup.Fingerprint { return dedup.OfUint64(i) }

func TestNewRejectsBadCapacity(t *testing.T) {
	b := newBuffered(t, 4)
	if _, err := New(b.f, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(b.f, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestWriteCoalescing(t *testing.T) {
	b := newBuffered(t, 8)
	for i := 0; i < 10; i++ {
		end, err := b.Write(0, 5, fp(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if end != b.f.Options().CtrlLatency {
			t.Fatalf("buffered write latency %v, want ctrl", end)
		}
	}
	st := b.Stats()
	if st.WriteHits != 9 || st.WriteMiss != 1 || st.Flushes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// No flash program happened.
	if b.f.Stats().UserPrograms != 0 {
		t.Fatal("coalesced writes reached flash")
	}
}

func TestEvictionFlushesLRU(t *testing.T) {
	b := newBuffered(t, 2)
	b.Write(0, 1, fp(1))
	b.Write(0, 2, fp(2))
	// Touch 1 so 2 is the LRU, then overflow.
	b.Write(0, 1, fp(11))
	if _, err := b.Write(0, 3, fp(3)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2", b.Len())
	}
	if b.Stats().Flushes != 1 {
		t.Fatalf("flushes = %d", b.Stats().Flushes)
	}
	// LPN 2 must now be on flash with its content.
	if _, err := b.f.Read(1*event.Millisecond, 2); err != nil {
		t.Fatalf("flushed page unreadable: %v", err)
	}
	if b.f.Stats().UserPrograms != 1 {
		t.Fatalf("programs = %d", b.f.Stats().UserPrograms)
	}
}

func TestReadHitAndMiss(t *testing.T) {
	b := newBuffered(t, 4)
	b.Write(0, 7, fp(7))
	end, err := b.Read(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if end != 100+b.f.Options().CtrlLatency {
		t.Fatalf("read hit latency %v", end)
	}
	// Miss goes to the FTL (unmapped -> ctrl latency, but counted as miss).
	if _, err := b.Read(100, 8); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.ReadHits != 1 || st.ReadMiss != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTrimDropsBufferedPage(t *testing.T) {
	b := newBuffered(t, 4)
	b.Write(0, 9, fp(9))
	if _, err := b.Trim(1, 9); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || b.Stats().TrimDrops != 1 {
		t.Fatalf("len=%d stats=%+v", b.Len(), b.Stats())
	}
	// Nothing ever reached flash.
	if b.f.Stats().UserPrograms != 0 {
		t.Fatal("trimmed buffered page was flushed")
	}
}

func TestFlushDrains(t *testing.T) {
	b := newBuffered(t, 8)
	for i := uint64(0); i < 5; i++ {
		b.Write(0, i, fp(i+100))
	}
	done, err := b.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("flush took no time")
	}
	if b.Len() != 0 || b.Stats().FinalFlush != 5 {
		t.Fatalf("len=%d stats=%+v", b.Len(), b.Stats())
	}
	for i := uint64(0); i < 5; i++ {
		if _, err := b.f.Read(done, i); err != nil {
			t.Fatalf("read %d after flush: %v", i, err)
		}
	}
	if err := b.f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferReducesFlashWritesUnderSkew(t *testing.T) {
	// A Zipf-hot overwrite stream: the buffer should absorb a large
	// share of writes.
	run := func(capPages int) (flashWrites uint64) {
		b := newBuffered(t, capPages)
		rng := rand.New(rand.NewSource(5))
		zipf := rand.NewZipf(rng, 1.3, 1, 200)
		now := event.Time(0)
		for i := 0; i < 5000; i++ {
			end, err := b.Write(now, zipf.Uint64(), fp(rng.Uint64()))
			if err != nil {
				t.Fatal(err)
			}
			now = end
		}
		if _, err := b.Flush(now); err != nil {
			t.Fatal(err)
		}
		if err := b.f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return b.f.Stats().UserPrograms
	}
	small := run(4)
	big := run(128)
	if big >= small {
		t.Fatalf("bigger buffer wrote more: %d vs %d", big, small)
	}
	if big >= 5000 {
		t.Fatalf("buffer absorbed nothing: %d flash writes for 5000 user writes", big)
	}
}

func TestBufferedIntegrityAfterChurn(t *testing.T) {
	b := newBuffered(t, 32)
	rng := rand.New(rand.NewSource(6))
	logical := int64(b.f.LogicalPages())
	now := event.Time(0)
	for i := 0; i < 4000; i++ {
		lpn := uint64(rng.Int63n(logical))
		var err error
		var end event.Time
		switch rng.Intn(10) {
		case 0:
			end, err = b.Trim(now, lpn)
		case 1, 2:
			end, err = b.Read(now, lpn)
		default:
			end, err = b.Write(now, lpn, fp(rng.Uint64()%64))
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		now = end
	}
	if _, err := b.Flush(now); err != nil {
		t.Fatal(err)
	}
	if err := b.f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
