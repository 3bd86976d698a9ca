package cagc

// Programmatic verification of every shape claim the reproduction
// makes — the artifact-evaluation checklist as code. Each check reads
// the relevant figure's rows from the evaluation's result set and
// states pass/fail with the measured numbers, so `figures -exp verify`
// audits the whole reproduction in one command.

import (
	"fmt"
	"io"
	"math"
)

// check is one verified claim.
type check struct {
	ID     string // e.g. "fig9-ordering"
	Claim  string // the paper-derived statement being tested
	Pass   bool
	Detail string // measured numbers
}

// verify evaluates the paper's shape claims against the figures'
// rows, read from rs (which holds verifyCells).
func verify(p Params, rs runs) ([]check, error) {
	var checks []check
	add := func(id, claim string, pass bool, detail string, args ...any) {
		checks = append(checks, check{
			ID: id, Claim: claim, Pass: pass,
			Detail: fmt.Sprintf(detail, args...),
		})
	}

	// Table II: generator calibration.
	t2, err := tableII(p)
	if err != nil {
		return nil, err
	}
	for _, r := range t2 {
		okW := math.Abs(r.GotWriteRatio-r.WantWriteRatio) <= 0.04
		okD := math.Abs(r.GotDedupRatio-r.WantDedupRatio) <= 0.09
		okS := math.Abs(r.GotAvgReqKB-r.WantAvgReqKB) <= r.WantAvgReqKB*0.15
		add("tableII-"+string(r.Workload),
			"generated workload matches the published characteristics",
			okW && okD && okS,
			"write %.1f/%.1f%%, dedup %.1f/%.1f%%, %.1f/%.1fKB",
			r.GotWriteRatio*100, r.WantWriteRatio*100,
			r.GotDedupRatio*100, r.WantDedupRatio*100,
			r.GotAvgReqKB, r.WantAvgReqKB)
	}

	// Figure 2: inline dedup always degrades response time.
	for _, r := range figure2(p, rs) {
		add("fig2-"+string(r.Workload),
			"inline dedup slows the ULL SSD",
			r.Normalized > 1,
			"%.2fx normalized", r.Normalized)
	}

	// Figure 6: refcount-1 dominates invalidations.
	for _, r := range figure6(p, rs) {
		add("fig6-"+string(r.Workload),
			">80% of invalid pages come from refcount-1 pages",
			r.Shares[0] > 0.8,
			"refcount-1 share %.1f%%", r.Shares[0]*100)
	}

	// Figure 8: exact worked example.
	base8, cagc8, err := Figure8()
	if err != nil {
		return nil, err
	}
	add("fig8-exact",
		"worked example: 12 vs 7 GC page writes, 5 duplicates dropped",
		base8.MigrationWrites == 12 && cagc8.MigrationWrites == 7 && cagc8.GCDupDropped == 5,
		"baseline %d writes; CAGC %d writes, %d dropped",
		base8.MigrationWrites, cagc8.MigrationWrites, cagc8.GCDupDropped)

	// Figures 9/10: reductions everywhere, ordered by dedup ratio.
	byW := map[Workload]compareRow{}
	allPositive := true
	detail := ""
	for _, r := range figure9And10(p, rs) {
		byW[r.Workload] = r
		if r.ErasedReduction <= 0 || r.MigratedReduction <= 0 {
			allPositive = false
		}
		detail += fmt.Sprintf("%s erased %.1f%% migrated %.1f%%; ",
			r.Workload, r.ErasedReduction*100, r.MigratedReduction*100)
	}
	add("fig9-10-positive",
		"CAGC erases fewer blocks and migrates fewer pages on every workload",
		allPositive, "%s", detail)
	add("fig9-10-ordering",
		"reductions grow with the dedup ratio (Homes < Web-vm < Mail)",
		byW[Mail].MigratedReduction > byW[WebVM].MigratedReduction &&
			byW[WebVM].MigratedReduction > byW[Homes].MigratedReduction &&
			byW[Mail].ErasedReduction > byW[Homes].ErasedReduction,
		"migrated %.1f%% < %.1f%% < %.1f%%",
		byW[Homes].MigratedReduction*100, byW[WebVM].MigratedReduction*100,
		byW[Mail].MigratedReduction*100)

	// Figure 11: CAGC < Baseline < Inline-Dedupe.
	for _, r := range figure11(p, rs) {
		add("fig11-"+string(r.Workload),
			"response ordering CAGC < Baseline < Inline-Dedupe",
			r.CAGCNorm < 1 && r.InlineNorm > 1,
			"inline %.2fx, CAGC %.2fx", r.InlineNorm, r.CAGCNorm)
	}

	// Figure 13: reductions survive every victim policy.
	f13, positive := figure13(p, rs), 0
	for _, c := range f13 {
		if c.ErasedReduction > 0 && c.MigratedReduction > 0 {
			positive++
		}
	}
	add("fig13-policies",
		"CAGC's reductions hold under random, greedy and cost-benefit selection",
		positive == len(f13), "%d/9 cells positive on both GC metrics", positive)

	return checks, nil
}

// printChecks renders the verification report and fails when a check
// does.
func printChecks(w io.Writer, p Params, rs runs) error {
	checks, err := verify(p, rs)
	if err != nil {
		return err
	}
	if failed := fprintChecks(w, checks); failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// fprintChecks renders checks; it returns the number of failed ones.
func fprintChecks(w io.Writer, checks []check) int {
	failed := 0
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "[%s] %-18s %s\n        %s\n", status, c.ID, c.Claim, c.Detail)
	}
	fmt.Fprintf(w, "%d/%d checks passed\n", len(checks)-failed, len(checks))
	return failed
}
