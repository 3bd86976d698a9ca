package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// streamHash returns the sha256 of the binary Writer encoding of the
// first n requests of src (all of them if it ends sooner).
func streamHash(t *testing.T, src Source, n int) string {
	t.Helper()
	h := sha256.New()
	w, err := NewWriter(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedStreams holds the hashes of the generated streams as they were
// before the generator ran on its own lagged-Fibonacci source, integer
// cutoff draws and the reciprocal scramble; every one of those had to
// leave the bytes alone. Keys are
// "<preset>/<logical pages>/<seed>" for the first 20 000 generated
// requests and "<preset>/<logical pages>/precond" for the whole
// preconditioner stream (its first 20 000 requests at 1<<20 pages).
var pinnedStreams = map[string]string{
	"Homes/1048576/-3":       "300180f0c1ad184329db8e7a36af90602b4db3129ec09de6952a32a82ae98cb5",
	"Homes/1048576/1":        "86844a0ae5e657101d7f25880af59af6699d317bd7b855114cab59a743956b49",
	"Homes/1048576/7":        "46a4cf3650b32f073ed3f8fa6363b87ba9dcd7dd7a69af5bbcbff9fff4e3c09c",
	"Homes/1048576/precond":  "fdf2be12d694c39a23ce8d0b9087ce8d162e2035875b6191fae61e21f0a7210e",
	"Homes/2105/-3":          "b44d47c429cacc2e6129e861c0ce734c3921cc4acc49ec75ed18ea9610005785",
	"Homes/2105/1":           "23a5272d8204a68e098809c38e8f2dec9085bb900a1f885280454c63ebe3fbad",
	"Homes/2105/7":           "e20148b378967f5a8f1fd40869d1931e434c85372c7276b545aaea59051e92d9",
	"Homes/2105/precond":     "37f56c4227b0b9f52f80f18a162d9281b5a48c0d451deb26839ec8d92b7a4002",
	"Homes/65536/-3":         "1faac9f73606bff3e41d06b9207402a6709f8755ae0c0566fe17aa3c0f30de83",
	"Homes/65536/1":          "cbfd35c3949d3490dc0276790f1e1d10972eb4d0c27947bdb5b7e0db47aad55a",
	"Homes/65536/7":          "e6bda555a572c8bc8126d224f69cb3b0c9d7c91959fe7c421424fe95ea9f476a",
	"Homes/65536/precond":    "c617a0eaf53f01c4586de6627fd57a4a1a071b0607493a77e0b7e96c25a4e3b5",
	"Homes/68719476736/-3":   "ed349a984079235027216e84e60454e5771ffef0aaeaadbe5ed939c5b63ebb26",
	"Homes/68719476736/1":    "31923b2cd5f2804d7cf2055fca0d50378e16770e9f08a1ee8781c1e73dd6c45e",
	"Homes/68719476736/7":    "9945dc58d755a1fd3256197e2cb919d6cdef07e0c8e3ef43ba8af846167f1811",
	"Mail/1048576/-3":        "54e8c87d49341ff100427195221f6f0010d704b265e8992a4b0d02fc8b2c7075",
	"Mail/1048576/1":         "ff257a4c2fb71d5f2746bb9ab62d1aa5b422279481a7d7e829de5642570a8273",
	"Mail/1048576/7":         "9efd98fffcbde52caacdb7ec3818b55a9af0323d2a1b83a614de6a1fdf524d04",
	"Mail/1048576/precond":   "865c7eb0aa7bfcaa9bf50a1be4d6a61316f94a869efd69cd01e890ef0aa0fee7",
	"Mail/2105/-3":           "3de62a9649066fcb267259232d9dc7e5ac57aa5af0ee0d879b78e67e1009303b",
	"Mail/2105/1":            "e1ce42ddf1206ef46be3f89aad149759296922c21190cc1de471c2e9dd886456",
	"Mail/2105/7":            "00dfca55fd8a4f95e86179071bfde14599c0094858b0977a8fcb0267b23a9a71",
	"Mail/2105/precond":      "3143b555360a16d117a1b2bc496909b311029e96a456300f220da8f0eafedb56",
	"Mail/65536/-3":          "27df4059701e741e001ba6deb04ae0a61ee33b3f075c542e364e25f50cfc66cf",
	"Mail/65536/1":           "87c3b5fc504cc2a154d2d1161e1ac81fb65ee8ca6de7fe189373281d3cbfd900",
	"Mail/65536/7":           "b8e3cd52606fa56ac8b5a76696afd5fb262be6d9e7d324122a71dfeb5218bee9",
	"Mail/65536/precond":     "c13c864ac311a18955029d3588aef6217390151d5e7a87f4ccbc5d3577a260f9",
	"Mail/68719476736/-3":    "df74ad8e359b3dd79e1cf393a943344c4ee3e0b0f8d2be4125a3ec58f0a820ed",
	"Mail/68719476736/1":     "86ca03ec847b1b53f0766b583297a6b2be36ec12b02bcfbf15f6b172c582b7c2",
	"Mail/68719476736/7":     "0cf4abd2168b30dcbe9308eabc4888415a0ce7bd1fa91633e23d2074623618c7",
	"Web-vm/1048576/-3":      "6253d571629e1ee2c42703f626c3cb541fffd2c2aec159e353200a2abc5d88f8",
	"Web-vm/1048576/1":       "ae27f2c3a8efbc8c4d92f315bc9646561c70650f5f7cf2ac61a08887f33c2f6d",
	"Web-vm/1048576/7":       "d5f00b93ab42131ea893fc17b2b29509f2606e0cd17b10c7d81ee832d7b4c7a2",
	"Web-vm/1048576/precond": "889ea9ea13d04f81f33ac028f0f7b02d288b871608a44678014be83b4e0d1e17",
	"Web-vm/2105/-3":         "9a5e56326e4a4940dbb7fea52663149df55df613c8f543bd98955743ca1f24ae",
	"Web-vm/2105/1":          "9f63d6087a1530afeb130061804a0db1ff83f01eedddcabaa07b255d259c59ef",
	"Web-vm/2105/7":          "1c0fbc59e171d9a0ab2f35eee983f348d2157f1e9364a0bc3fb1632bbbc739ad",
	"Web-vm/2105/precond":    "ac0313fde9d0126026049b8467485fb39f755216edfd7b9b71b24816f4d7a6ab",
	"Web-vm/65536/-3":        "2848ef448908f7f60bf225342f92c3b44f7751e3581656103213c3ff2ef10530",
	"Web-vm/65536/1":         "3c125ec961a8b592505db6fad41a81bf21d1632cb60a01c0c3d9cdbfeed6972e",
	"Web-vm/65536/7":         "4c36425b1ed7e50e4e3dcde90ea2ab9dd806059e88a8e3e8e36cd678fe25f653",
	"Web-vm/65536/precond":   "d2b05dbae1747ec0ffd9bc62a3996633953bf540986073b98ab9ea86434c888b",
	"Web-vm/68719476736/-3":  "814dbb4789298336684e33b8b05629948eeebbcd7b81d3c1f6ee9be5ed348f83",
	"Web-vm/68719476736/1":   "3b63f9c4892f984ec74a838e57db18ab2fe413b177c11a567d3a7b851ba6a25b",
	"Web-vm/68719476736/7":   "21a4c860ee77ae759b002b080c9254a79c4191c0d5e826bb753f550301a455bc",
	"custom/all-dup":         "2e564f38d06e1e98fccd29bcebe67dd8ef590f04723e7705d7d034d2b977d16c",
	"custom/bench":           "fc00686e296a87d7374b8781ce7437bb0667903dda45bdfc9899661d405f927c",
	"custom/extremes":        "8c80cb779de266b5ac9eb2dacbcb4c538bb7745c1ee9e85316e0434cfa0eb01b",
	"custom/long":            "2f4c6e1410a64df552ef8663b9e8197a833c37f49862e97e57166ec8d0f07386",
	"custom/poisson":         "2e179fd9b1dc4c8799f7855c42ec002036c52e7873cd433cb4355ce26952051f",
}

// The sizes: the default 16 MiB device, the experiments' 1<<16 pages,
// and 1<<20 pages; pinnedHugePages adds a space whose scrambled
// addresses wrap the 64-bit product (generator only — its
// preconditioner would shuffle 2^30 chunks).
const pinnedHugePages = 1 << 36

func TestGeneratedStreamsPinned(t *testing.T) {
	const n = 20_000
	got := map[string]string{}
	for _, w := range Workloads {
		for _, pages := range []uint64{2105, 1 << 16, 1 << 20, pinnedHugePages} {
			for _, seed := range []int64{1, 7, -3} {
				spec, err := Preset(w, pages, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				g, err := NewGenerator(spec)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%d/%d", w, pages, seed)] = streamHash(t, g, n)
			}
			if pages == pinnedHugePages {
				continue
			}
			spec, err := Preset(w, pages, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPreconditioner(spec)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%d/precond", w, pages)] = streamHash(t, p, n)
		}
	}
	for name, spec := range pinnedCustomSpecs() {
		g, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		got["custom/"+name] = streamHash(t, g, n)
	}
	if len(got) != len(pinnedStreams) {
		t.Fatalf("%d streams hashed, %d pinned", len(got), len(pinnedStreams))
	}
	for k, want := range pinnedStreams {
		if got[k] != want {
			t.Errorf("%s: stream hash %s, pinned %s", k, got[k], want)
		}
	}
}

// pinnedCustomSpecs reach what the presets do not: Poisson arrivals, no
// clock at all, probabilities at 0 and 1, long requests.
func pinnedCustomSpecs() map[string]Spec {
	base := benchSpec(20_000)
	poisson := base
	poisson.MeanInterArrival = 50_000
	poisson.Seed = 99
	extremes := base
	extremes.WriteRatio, extremes.DedupRatio, extremes.TrimFraction = 1, 0, 0
	extremes.Seed = -12345
	allDup := base
	allDup.DedupRatio, allDup.TrimFraction, allDup.TrimPages = 1, 0.5, 1
	allDup.Seed = 1 << 40
	long := base
	long.AvgReqPages, long.LogicalPages, long.BurstMean = 300, 5000, 3
	long.MeanInterArrival, long.IntraBurst = 10_000, 100
	long.Seed = 0
	return map[string]Spec{"bench": base, "poisson": poisson, "extremes": extremes, "all-dup": allDup, "long": long}
}
