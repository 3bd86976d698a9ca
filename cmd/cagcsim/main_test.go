package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cagc"
)

// Explicitly-set scheduling flags outside their domain must fail with a
// clear one-line error; unset flags (and their 0 sentinels) must not.
// A bad invocation must fail before any side effect: in particular,
// profile files must not be created when flag validation rejects the
// run. (Profiling used to start before policy names were checked,
// leaving stray pprof files behind.) -sched is a retired flag: it must
// fail like any unknown one.
func TestValidationPrecedesProfiling(t *testing.T) {
	cases := [][]string{
		{"-policy", "psychic"},
		{"-sched", "heap"},
		{"-workload", "postgres"},
		{"-scheme", "raid5"},
		{"-fleet", "2", "-batch", "2"},
		{"-trace-last", "5"},
		{"-array", "raid1", "-qd", "8"},
		{"-array", "raid1", "-buffer", "64"},
	}
	for _, args := range cases {
		dir := t.TempDir()
		cpu := filepath.Join(dir, "cpu.pprof")
		mem := filepath.Join(dir, "mem.pprof")
		var stdout, stderr bytes.Buffer
		err := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &stdout, &stderr)
		if err == nil {
			t.Errorf("args %v: no error", args)
			continue
		}
		for _, f := range []string{cpu, mem} {
			if _, statErr := os.Stat(f); !os.IsNotExist(statErr) {
				t.Errorf("args %v: profile file %s was created despite validation failure", args, f)
			}
		}
	}
}

// -json output is stamped with the run's canonical config key, and a
// batch's documents are exactly the single runs' documents in seed
// order (the prefix property CI byte-compares).
func TestJSONCarriesConfigKey(t *testing.T) {
	args := []string{"-device", "16777216", "-requests", "1500", "-seed", "3", "-json"}
	var single, stderr bytes.Buffer
	if err := run(args, &single, &stderr); err != nil {
		t.Fatal(err)
	}
	p := cagc.Params{DeviceBytes: 16 << 20, Requests: 1500, Seed: 3,
		Utilization: 0.55, RefThreshold: 1}
	key := cagc.ConfigKey(cagc.Mail, cagc.CAGC, "greedy", p)
	if !strings.Contains(single.String(), `"config_key": "`+key+`"`) {
		t.Fatalf("single -json output missing config key %s:\n%.200s", key, single.String())
	}

	var second bytes.Buffer
	args[5] = "4" // seed 4
	if err := run(args, &second, &stderr); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := run([]string{"-device", "16777216", "-requests", "1500", "-seed", "3",
		"-batch", "2", "-workers", "2", "-json"}, &batch, &stderr); err != nil {
		t.Fatal(err)
	}
	want := single.String() + second.String()
	if batch.String() != want {
		t.Fatalf("batch -json is not the concatenation of its single runs:\n--- batch ---\n%s--- singles ---\n%s",
			batch.String(), want)
	}
}

func TestValidateSchedFlags(t *testing.T) {
	cases := []struct {
		name       string
		set        map[string]bool
		shard      int
		workers    int
		topK       int
		wantErrSub string
	}{
		{name: "all defaults", set: map[string]bool{}},
		{name: "zero sentinels unset", set: map[string]bool{}, shard: 0, workers: 0, topK: 0},
		{name: "valid explicit", set: map[string]bool{"fleet-shard": true, "workers": true, "fleet-topk": true},
			shard: 16, workers: 4, topK: 3},
		{name: "explicit zero workers ok", set: map[string]bool{"workers": true}, workers: 0},
		{name: "explicit zero topk ok", set: map[string]bool{"fleet-topk": true}, topK: 0},
		{name: "zero shard explicit", set: map[string]bool{"fleet-shard": true}, shard: 0,
			wantErrSub: "-fleet-shard 0"},
		{name: "negative shard", set: map[string]bool{"fleet-shard": true}, shard: -5,
			wantErrSub: "-fleet-shard -5"},
		{name: "negative workers", set: map[string]bool{"workers": true}, workers: -1,
			wantErrSub: "-workers -1"},
		{name: "negative topk", set: map[string]bool{"fleet-topk": true}, topK: -2,
			wantErrSub: "-fleet-topk -2"},
		{name: "bad value but flag unset", set: map[string]bool{}, shard: -5, workers: -1, topK: -2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSchedFlags(tc.set, tc.shard, tc.workers, tc.topK)
			if tc.wantErrSub == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErrSub)
			}
			if !strings.Contains(err.Error(), tc.wantErrSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErrSub)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}
