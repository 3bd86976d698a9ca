package main

import (
	"bytes"
	"io"
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
		{"-array", "raid1", "-policy", "random"},
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

	// Seed 0 is the default seed 1, so a batch from it runs seeds 1 and
	// 2, exactly the batch from seed 1 (never seed 1 twice).
	var fromZero, fromOne bytes.Buffer
	for out, seed := range map[*bytes.Buffer]string{&fromZero: "0", &fromOne: "1"} {
		if err := run([]string{"-requests", "1500", "-seed", seed, "-batch", "2", "-json"}, out, &stderr); err != nil {
			t.Fatal(err)
		}
	}
	if fromZero.String() != fromOne.String() {
		t.Fatal("-batch 2 -seed 0 differs from -batch 2 -seed 1")
	}
}

// The scheduling flags take the service's bounds: 0 is the kind's
// default (an explicit -fleet-topk 0 included), a negative value is
// refused by name in one line, and the flags of a kind the invocation
// did not select are not read.
func TestValidateSchedFlags(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantErrSub string
	}{
		{name: "all defaults", args: []string{"-fleet", "4"}},
		{name: "zero sentinels unset", args: []string{"-batch", "2"}},
		{name: "valid explicit", args: []string{"-fleet", "4", "-workers", "4", "-fleet-topk", "3"}},
		{name: "explicit zero workers ok", args: []string{"-batch", "2", "-workers", "0"}},
		{name: "explicit zero topk ok", args: []string{"-fleet", "4", "-fleet-topk", "0"}},
		{name: "negative workers", args: []string{"-batch", "2", "-workers", "-1"},
			wantErrSub: "Workers -1"},
		{name: "negative topk", args: []string{"-fleet", "4", "-fleet-topk", "-2"},
			wantErrSub: "Fleet.TopK -2"},
		{name: "bad value but flag unset", args: []string{"-batch", "2", "-fleet-stagger", "-5", "-fleet-topk", "-2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inv, err := parse(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			_, err = inv.job.Resolve()
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

// -trace-summary prints the same text for one configuration every
// time. The run is long enough to stream its generator through the
// ring, whose wall-clock ingest events differ run to run.
func TestTraceSummaryDeterministic(t *testing.T) {
	args := []string{"-workload", "mail", "-scheme", "cagc", "-buffer", "64", "-requests", "3000", "-trace-summary"}
	summary := func() string {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		_, text, ok := strings.Cut(stderr.String(), "trace summary [")
		if !ok {
			t.Fatalf("no trace summary on stderr:\n%s", stderr.String())
		}
		return text
	}
	first := summary()
	if second := summary(); second != first {
		t.Fatalf("trace summary changed between runs:\n%s\nthen\n%s", first, second)
	}
}
