// Package cagc is a reproduction of "CAGC: A Content-aware Garbage
// Collection Scheme for Ultra-Low Latency Flash-based SSDs" (Wu, Du,
// Li, Jiang, Shen, Mao — IPDPS 2021).
//
// It contains a complete FlashSim-class event-driven SSD simulator
// written in pure Go: a NAND device model with Table-I Z-NAND timing, a
// flash translation layer with three victim-selection policies, a
// deduplication engine with reference counting, content-annotated
// workload generators calibrated to the FIU traces the paper replays,
// and the three evaluated schemes — Baseline (no dedup), Inline-Dedupe
// (fingerprinting on the critical write path), and CAGC (deduplication
// embedded in the GC migration pipeline with reference-count-based
// hot/cold data placement).
//
// RunExperiment and RunAllExperiments regenerate every figure and table
// of the paper's evaluation section; see EXPERIMENTS.md for the paper-
// vs-measured record and DESIGN.md for the system inventory.
//
// Quick start:
//
//	res, err := cagc.Run(cagc.Mail, cagc.CAGC, "greedy", cagc.Params{})
//	if err != nil { ... }
//	fmt.Println(res)
//
// Each experiment runs its distinct configurations in one RunBatch;
// for the comparison behind Figures 9 and 10:
//
//	err := cagc.RunExperiment("fig9", cagc.Params{}, os.Stdout)
package cagc
