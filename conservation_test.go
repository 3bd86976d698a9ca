package cagc

import (
	"fmt"
	"testing"

	"cagc/internal/sim"
	"cagc/internal/trace"
)

// Program/erase conservation over the measured window, checked against
// the device's own counters with no oracle. Every program the FTL
// accounts for (user programs, GC migrations including wear-level
// swaps, promotions) reaches the device, and every page the device
// programmed is either still programmed — valid or invalid — or was
// wiped by the erase of a full block, retired blocks included:
//
//	ΔPagePrograms = Δ(Stats.TotalPrograms)
//	ΔPagePrograms − ΔBlockErases × pages per block = Δ(valid + invalid)
func TestProgramEraseConservation(t *testing.T) {
	type leg struct {
		s      Scheme
		policy string
		p      Params
		// check reports why the leg exercised nothing of its own.
		check func(res *Result) error
	}
	var legs []leg
	for _, s := range []Scheme{Baseline, InlineDedupe, CAGC} {
		for _, policy := range []string{"greedy", "random", "cost-benefit"} {
			legs = append(legs, leg{s: s, policy: policy, p: Params{Requests: 20_000}})
		}
	}
	legs = append(legs,
		leg{s: CAGC, policy: "greedy", p: Params{Requests: 20_000, EraseLimit: 14}, check: func(res *Result) error {
			if res.FTL.BadBlocks == 0 {
				return fmt.Errorf("no block retired")
			}
			return nil
		}},
		leg{s: Baseline, policy: "greedy", p: Params{Requests: 20_000, WearLevelThreshold: 4}, check: func(res *Result) error {
			if res.FTL.WLSwaps == 0 {
				return fmt.Errorf("no wear-level swap")
			}
			return nil
		}},
	)
	for _, l := range legs {
		name := fmt.Sprintf("%s/%s/erase-limit=%d/wl=%d", l.s, l.policy, l.p.EraseLimit, l.p.WearLevelThreshold)
		cfg, spec, err := buildRun(Mail, l.s.Options(), l.policy, l.p.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := trace.NewPreconditioner(spec)
		if err != nil {
			t.Fatal(err)
		}
		offset, err := r.Precondition(pre)
		if err != nil {
			t.Fatal(err)
		}
		dev := r.FTL().Device()
		before := dev.Stats()
		_, valid0, invalid0 := dev.CountStates()
		gen, err := trace.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Replay(gen, offset, spec.Name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := dev.Stats()
		_, valid1, invalid1 := dev.CountStates()

		programs := int64(after.PagePrograms - before.PagePrograms)
		erases := int64(after.BlockErases - before.BlockErases)
		if got := int64(res.FTL.TotalPrograms()); programs != got {
			t.Errorf("%s: device programmed %d pages, FTL accounts %d", name, programs, got)
		}
		ppb := int64(cfg.Device.Geometry.PagesPerBlock)
		held := int64(valid1+invalid1) - int64(valid0+invalid0)
		if programs-erases*ppb != held {
			t.Errorf("%s: %d programs − %d erases × %d pages = %d, but programmed pages changed by %d",
				name, programs, erases, ppb, programs-erases*ppb, held)
		}
		if erases == 0 {
			t.Errorf("%s: no block erased in the measured window", name)
		}
		if l.check != nil {
			if err := l.check(res); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
