package ftl

import (
	"fmt"
	"math/rand"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
)

func benchFTL(b *testing.B, opts Options) *FTL {
	b.Helper()
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerPlan: 16, PagesPerBlock: 64, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.07,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(dev, uint64(float64(cfg.UserPages())*0.70), opts)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// benchWrites measures sustained FTL write throughput including GC.
func benchWrites(b *testing.B, opts Options, pool uint64) {
	f := benchFTL(b, opts)
	logical := f.LogicalPages()
	now := event.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := uint64(i*2654435761) % logical
		fp := dedup.OfUint64(uint64(i) % pool)
		end, err := f.Write(now, lpn, fp)
		if err != nil {
			b.Fatal(err)
		}
		now = end
	}
}

func BenchmarkFTLWriteBaseline(b *testing.B) { benchWrites(b, BaselineOptions(), 1<<62) }
func BenchmarkFTLWriteCAGC(b *testing.B)     { benchWrites(b, CAGCOptions(), 256) }
func BenchmarkFTLWriteInline(b *testing.B)   { benchWrites(b, InlineDedupeOptions(), 256) }

// BenchmarkCollect reports the host cost of one collected block
// (selection, migration, erase, and the overwrites that dirtied it)
// under steady-state Baseline GC, at three device sizes: the number
// must stay flat as the device grows.
func BenchmarkCollect(b *testing.B) {
	for _, size := range []int64{16 << 20, 256 << 20, 4 << 30} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			cfg := flash.ScaledConfig(size)
			dev, err := flash.NewDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			f, err := New(dev, uint64(float64(cfg.UserPages())*0.55), BaselineOptions())
			if err != nil {
				b.Fatal(err)
			}
			logical := f.LogicalPages()
			now, i := event.Time(0), uint64(0)
			rng := rand.New(rand.NewSource(1))
			write := func() {
				// Uniformly random overwrites: victims keep a mix of valid
				// pages and few blocks tie for the most invalid.
				end, err := f.Write(now, uint64(rng.Int63n(int64(logical))), dedup.OfUint64(i))
				if err != nil {
					b.Fatal(err)
				}
				now = end
				i++
			}
			// Fill the address space, then overwrite until the free pool
			// sits at the watermark and every write pays for GC.
			for i < 2*logical || f.Stats().BlocksErased == 0 {
				write()
			}
			start := f.Stats().BlocksErased
			b.ResetTimer()
			for f.Stats().BlocksErased-start < uint64(b.N) {
				write()
			}
		})
	}
}

// BenchmarkCheckInvariants times the post-run integrity walk — it runs
// after every run, fleet device and batch seed — on the canonical
// 16 MiB device at the default utilization, after enough random
// overwrites for GC, the index and the reverse map to be in steady
// state.
func BenchmarkCheckInvariants(b *testing.B) {
	for _, opts := range []Options{BaselineOptions(), InlineDedupeOptions(), CAGCOptions()} {
		b.Run(opts.SchemeName(), func(b *testing.B) {
			cfg := flash.ScaledConfig(16 << 20)
			dev, err := flash.NewDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			f, err := New(dev, uint64(float64(cfg.UserPages())*0.55), opts)
			if err != nil {
				b.Fatal(err)
			}
			logical := f.LogicalPages()
			rng := rand.New(rand.NewSource(1))
			now := event.Time(0)
			for i := uint64(0); i < 4*logical; i++ {
				if now, err = f.Write(now, uint64(rng.Int63n(int64(logical))), dedup.OfUint64(rng.Uint64()%logical)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.CheckInvariants(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
