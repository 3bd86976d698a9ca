package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cagc"
)

// writePathPins holds the sha256 of every file the trace write path
// produces for a fixed input: `gen` for each preset at two seeds in the
// binary, gzip and text encodings, `convert` from binary to text and
// back and from the FIU sample to binary, and cagc.WriteTraceFile. An
// encoder change must leave every hash in place. The .gz hashes also
// pin compress/gzip's output, so a toolchain whose deflate changes
// moves them too.
var writePathPins = map[string]string{
	"WriteTraceFile Mail seed=3 .bin":    "1c1c12844f879f87fd7e974802cb7e5369d72dc211a5d67bc22eefa744f19e1e",
	"WriteTraceFile Mail seed=3 .bin.gz": "f8366018630bf5fb85c89cd0b6f833ae793536eacf091bc95e9cc26de246a1ee",
	"convert FIU→binary":                 "648eadc25ceb0538336f18829e50ef998ad11f1531d18762edb4b08cd42d1aac",
	"convert binary→text":                "94c91e4d35da5b2c6b67e86916b655cc0c75700fa2854f51d627adb39f6711ba",
	"convert text→binary":                "f020a0190e99c76e6d8d2479d2b86c438f9ee3f7e00e136ffca2306d7012f326",
	"gen Homes seed=1 .bin":              "ad1d72cc1ce3a3ad6410ab058df037e6e2195df863709ef6a124caf3fed31c38",
	"gen Homes seed=1 .bin.gz":           "e9b2bf9d06157f435937eb3fd1cb03cd520f65fc468d2c8c6b91700117f0cd9a",
	"gen Homes seed=1 .txt":              "5f8e00d3d4d65dd76e4d6362ba236ac385da9543f760941cb7159042a7b8b6cf",
	"gen Homes seed=7 .bin":              "0a4223c36f4b3318d4b5e4bf47374610ec9ad8502265dcced3453454df387c20",
	"gen Homes seed=7 .bin.gz":           "6322726e1a63457a3d98ba3ab93f113624c643eb837370e1815205deaf55e6dd",
	"gen Homes seed=7 .txt":              "420296392364c0d00c1e13c641453799199ec698dd8197fbcfe2833f4778fd08",
	"gen Mail seed=1 .bin":               "f020a0190e99c76e6d8d2479d2b86c438f9ee3f7e00e136ffca2306d7012f326",
	"gen Mail seed=1 .bin.gz":            "71878fc5ae5e89903bcca3e1d755af4830775646576f59e3679199bb194dc7e9",
	"gen Mail seed=1 .txt":               "94c91e4d35da5b2c6b67e86916b655cc0c75700fa2854f51d627adb39f6711ba",
	"gen Mail seed=7 .bin":               "4a97456e33af7bdd4156dbe2ed779c152ecd5589ac2cbbfd344b696e892a3a06",
	"gen Mail seed=7 .bin.gz":            "4b656d13ed216ab8b0b5f7b14695ab080f4a449af452b1d2dc15f7977af5b49b",
	"gen Mail seed=7 .txt":               "7d450c41dd0ddaf6db3481076810482b5de7ea258605730e487f116a09bc5861",
	"gen Web-vm seed=1 .bin":             "b1fd0ef69699f65cec41aa7d7ce41d44f03fe7b6023a4108dd24404964210882",
	"gen Web-vm seed=1 .bin.gz":          "2b82620c044066d7086ca4645324e5b5e98ddb1ea7126453d5c56aac12cb688c",
	"gen Web-vm seed=1 .txt":             "60e7ce2e3e8cd5bd04f0681c620dfb80f1c88ed96d89ba9feb5749a1dc9e07e1",
	"gen Web-vm seed=7 .bin":             "87a9f8c378f72d97a010b6ab7d8e6d976827de7dd9bdead6ef1ea35acda99c7d",
	"gen Web-vm seed=7 .bin.gz":          "adcc7b093567572d840e6bc763447dc3a330152eaa510e7ed497661091004ffe",
	"gen Web-vm seed=7 .txt":             "c1f29c12921406fbcc080b33dbd9a42e20f881d17e2911eca7bbacf98a883798",
}

// writePathOutputs runs every pinned write and returns each output's
// bytes by case name.
func writePathOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	out := map[string][]byte{}
	read := func(name, path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
		return data
	}
	for _, w := range []string{"Homes", "Web-vm", "Mail"} {
		for _, seed := range []string{"1", "7"} {
			for _, enc := range []struct {
				ext  string
				text bool
			}{{".bin", false}, {".bin.gz", false}, {".txt", true}} {
				path := filepath.Join(dir, "gen-"+w+"-"+seed+enc.ext)
				args := []string{"gen", "-workload", w, "-requests", "5000", "-seed", seed, "-o", path}
				if enc.text {
					args = append(args, "-text")
				}
				runOK(t, args...)
				read("gen "+w+" seed="+seed+" "+enc.ext, path)
			}
		}
	}

	bin := filepath.Join(dir, "gen-Mail-1.bin")
	text := filepath.Join(dir, "convert.txt")
	runOK(t, "convert", "-i", bin, "-text", "-o", text)
	read("convert binary→text", text)
	back := filepath.Join(dir, "convert.bin")
	runOK(t, "convert", "-i", text, "-o", back)
	if !bytes.Equal(read("convert text→binary", back), out["gen Mail seed=1 .bin"]) {
		t.Error("binary → text → binary is not the original file")
	}
	fiu := filepath.Join(dir, "fiu.bin")
	runOK(t, "convert", "-i", filepath.Join("testdata", "fiu-sample.txt"), "-o", fiu)
	read("convert FIU→binary", fiu)

	p := cagc.Params{Requests: 5000, Seed: 3}
	spec, err := cagc.WorkloadSpec(cagc.Mail, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".bin", ".bin.gz"} {
		gen, err := cagc.NewTraceGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "write-trace-file"+ext)
		n, err := cagc.WriteTraceFile(path, gen)
		if err != nil || n != 5000 {
			t.Fatalf("WriteTraceFile(%s) = %d, %v", ext, n, err)
		}
		read("WriteTraceFile Mail seed=3 "+ext, path)
	}
	return out
}

// TestWritePathPinned checks every pinned write against its hash.
func TestWritePathPinned(t *testing.T) {
	outs := writePathOutputs(t)
	names := make([]string, 0, len(outs))
	for name := range outs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum := sha256.Sum256(outs[name])
		got := hex.EncodeToString(sum[:])
		if want, ok := writePathPins[name]; !ok || got != want {
			t.Errorf("%q: sha256 %s, pinned %q", name, got, want)
		}
	}
	if len(writePathPins) != len(outs) {
		t.Errorf("%d pins for %d outputs", len(writePathPins), len(outs))
	}
}
