package cagc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"cagc/internal/ftl"
)

// pinnedDocs are the sha256 sums of the -json documents of a fixed set
// of jobs, recorded on amd64 before the GC pass rewrite that introduced
// this test. A change that moves one of them changes simulation results;
// a pure performance change must leave every one in place. The replay,
// scenario, array and fleet130 rows were recorded before the stream
// geometry, the fleet shard size and the RAID-0 stripe unit became
// constants. The trace-mode rows (untraced, traced, flight) and the
// batch8 rows hold what CI once checked by comparing cagcsim outputs;
// each agrees with that binary's -json document.
var pinnedDocs = map[string]string{
	"Homes/baseline/seed1":          "527fa429c820a93c83cffc2a53c1db681031523cb6b4cbc789095ece1ba838c8",
	"Homes/baseline/seed7":          "c646bb765fa02172fe13e89c8f9461a1fde144be95ecea8644917ad255c67522",
	"Homes/cagc/seed1":              "98766bed147ca77e419b03566ef1466c86f99897b39058484e8b305e138c711f",
	"Homes/cagc/seed7":              "3a849cb99cd1a826077e417421b848cf218383d02af149469719cc143eee3e50",
	"Homes/inline/seed1":            "46c6ce4f177ad37935b885ecd9a494775c3136ea138b710aad02cdd2c34219e0",
	"Homes/inline/seed7":            "5be627235bd5476d4b282f648d0aa1d1098999f6e28dccfa26b2a2e6ad660780",
	"Mail/baseline/seed1":           "a0a9a8377aa208ac1a2673bc119f4c2e4904b8381414383eb299aca750a28236",
	"Mail/baseline/seed7":           "1d6f2f64af1051f809b803475f54beaea1cb5f5983e733994c921572a6163ef8",
	"Mail/cagc-serial":              "67c6ed43560a608c9712a58b3b6b098d51d232a1c7c2f3c39647ce714d2e9431",
	"Mail/cagc/BufferPages":         "2836e3d70b8fcbafc066b2b8bfe5ce38aaceb7bcd0d14bb529a7dda04f89829a",
	"Mail/cagc/EraseLimit":          "05c91322137536a856e38d98467291a1c5a23c54ca3702810179727fa0f8df6c",
	"Mail/cagc/IndexCapacity":       "65ebf07865a030089b1968bfbb8c60b77cedc035e0bd515774166caeeb936d18",
	"Mail/cagc/MappingCache":        "aaf229187b9fb8a5c6dfd03f046944af981dc87338dcef90eacc15c579e79f40",
	"Mail/cagc/QueueDepth":          "b6ac791e1e2acd0317f4e2e1666102780a4691939f39ee908ad51fa4c7dd10ca",
	"Mail/cagc/WearLevelThreshold":  "5573e82656c9e0e715126ad288b7cc325ce73f788b0c2d67583dd8c0a55d86b4",
	"Mail/cagc/cost-benefit":        "97d7f3c2b724350c593aa05970acadd3b066bf3971600ae78477062fbe3df968",
	"Mail/cagc/random":              "c38a7c7f59122d0884f0751757f2f8055e921a2bd284d0268c6ff4b2980c1476",
	"Mail/cagc/seed1":               "7cb479def31eaf89f83b369554bc2cd9cfe799aba32144855be1f1ffc6b63b81",
	"Mail/cagc/seed7":               "3e8a574c97a90d6609cbde13d423cba59fcdd91185fbbec2a7597eb007f242e7",
	"Mail/inline/seed1":             "a7206c32e0cb27701d17568b4663111922a0f677737f99b9982958a008bf93f5",
	"Mail/inline/seed7":             "6a4757f814278d25c9625f1f15e2ff47286d4f05fcfa1e087c002598d0bf5365",
	"Web-vm/baseline/cost-benefit":  "bb61d4ec52bfecebc2d07c22bfaf4b77426d5e52d13f4d3e3975647ba017b966",
	"Web-vm/baseline/random":        "a53e7e779dacca782eb66e355cf9fc49c1d5ad67062ecc23d9f149b9bdea2b63",
	"Web-vm/baseline/seed1":         "f17977bf95b8761258cd22748ca88516b7c50e97ac4b021efa18260af23f2703",
	"Web-vm/baseline/seed7":         "5c3d206f82021c194bdcaba27883179e399a1a47e197e582a7e9ff75c73de063",
	"Web-vm/cagc/seed1":             "75a2971c6a9994e8c6a2fe429c5640440ea590e81b68cd3ba45395efb5ae9723",
	"Web-vm/cagc/seed7":             "c3b11ccb687cac202d51919fe05dc82090bf10b88d8aab1a0a85ef63a8ed9551",
	"Web-vm/inline/seed1":           "b4a720f2f55e18a7b02c360c715843ed137e85c1b8e57004b3a0423fc586d54e",
	"Web-vm/inline/seed7":           "b26f4065e0c132f194ba999e9d8037b253bdd4ebcee0be8f2063eb0fd7756c4d",
	"batch4":                        "8eb1f9f75ef1d9e4466f9b5505dbd14c12efe5856856f97d2a95ed65da80fcb3",
	"fleet4":                        "53bced7a906b36e1f5b210b0934d63c309416ddd9f9d90fec0969f3f6f0899c1",
	"replay/binary":                 "511ecda9dc28f605f4c88dc918d0622dfbbc5e107af6964ca0e0b37a610c2d20",
	"replay/text":                   "511ecda9dc28f605f4c88dc918d0622dfbbc5e107af6964ca0e0b37a610c2d20",
	"replay/gzip":                   "511ecda9dc28f605f4c88dc918d0622dfbbc5e107af6964ca0e0b37a610c2d20",
	"scenario3":                     "dab12cef1450750f3599c346fe82458f13ab9e25327f38661f2b46e1b7c59075",
	"scenario-file":                 "859b448d4423ec9e2a210a1641fa02d600a368c659571dbbbd5e00c6a31bd192",
	"raid1-stagger-steer":           "acf34d12c8bad784621cf6ad00baf8f67b7df816c190a2cdcdb5ec5e432c1756",
	"raid0":                         "56d41adbab3ad42b7941fa3ddd58b57e0dbdb9a7c78b208ce702d0886b42fdf6",
	"fleet130/workers1":             "2e813e055512d6e4c44064d5b9366995deb6ab7bb8c72fef2ed0768ad75a9183",
	"fleet130/workers8":             "2e813e055512d6e4c44064d5b9366995deb6ab7bb8c72fef2ed0768ad75a9183",
	"Mail/cagc/5000/untraced":       "ae06b2cb9787e98f7ef8cf5d6412d724f05053881105cc5c865a941293de599e",
	"Mail/cagc/5000/traced":         "ae06b2cb9787e98f7ef8cf5d6412d724f05053881105cc5c865a941293de599e",
	"Mail/cagc/5000/flight":         "ae06b2cb9787e98f7ef8cf5d6412d724f05053881105cc5c865a941293de599e",
	"Web-vm/baseline/5000/untraced": "6858635d614a1a49133f3b9183a423b30beff2437df25d94da67d2b725c731db",
	"Web-vm/baseline/5000/traced":   "6858635d614a1a49133f3b9183a423b30beff2437df25d94da67d2b725c731db",
	"Web-vm/baseline/5000/flight":   "6858635d614a1a49133f3b9183a423b30beff2437df25d94da67d2b725c731db",
	"Homes/inline/5000/untraced":    "d1cc520d4d34723d2b873f33779af05b8666d5f5812ab11362c6e840421b1e27",
	"Homes/inline/5000/traced":      "d1cc520d4d34723d2b873f33779af05b8666d5f5812ab11362c6e840421b1e27",
	"Homes/inline/5000/flight":      "d1cc520d4d34723d2b873f33779af05b8666d5f5812ab11362c6e840421b1e27",
	"batch8/workers1":               "3687fc7a2b5b555b154109d95683daaec200a5c659aa753c01cfddb68a932379",
	"batch8/workers8":               "3687fc7a2b5b555b154109d95683daaec200a5c659aa753c01cfddb68a932379",
}

// pinnedJob is one pinned document: a job rendered through Resolve and
// Execute.
type pinnedJob struct {
	name string
	job  Job
}

// pinnedTraces are one generated Mail trace written in each file
// format; every replay of them renders one document.
type pinnedTraces struct{ bin, text, gz string }

func writePinnedTraces(t *testing.T) pinnedTraces {
	t.Helper()
	tr := pinnedTraces{bin: writeTestTrace(t, Mail, Params{Requests: 3000, Seed: 1}, "mail.ctr")}
	tr.text = filepath.Join(t.TempDir(), "mail.txt")
	tr.gz = filepath.Join(t.TempDir(), "mail.ctr.gz")
	if err := convertTrace(tr.bin, tr.text, true); err != nil {
		t.Fatal(err)
	}
	if err := convertTrace(tr.bin, tr.gz, false); err != nil {
		t.Fatal(err)
	}
	return tr
}

func pinnedJobs(tr pinnedTraces) []pinnedJob {
	var jobs []pinnedJob
	add := func(name string, j Job) { jobs = append(jobs, pinnedJob{name, j}) }
	small := func(seed int64) Params { return Params{Requests: 3000, Seed: seed} }
	for _, w := range []Workload{Homes, WebVM, Mail} {
		for _, s := range []string{"baseline", "inline", "cagc"} {
			for _, seed := range []int64{1, 7} {
				add(fmt.Sprintf("%s/%s/seed%d", w, s, seed),
					Job{Workload: string(w), Scheme: s, Params: small(seed)})
			}
		}
	}
	for _, pol := range []string{"random", "cost-benefit"} {
		add("Mail/cagc/"+pol, Job{Workload: "mail", Scheme: "cagc", Policy: pol, Params: small(1)})
		add("Web-vm/baseline/"+pol, Job{Workload: "web-vm", Scheme: "baseline", Policy: pol, Params: small(1)})
	}
	for _, f := range []struct {
		name string
		set  func(*Params)
	}{
		{"WearLevelThreshold", func(p *Params) { p.WearLevelThreshold = 2 }},
		{"IndexCapacity", func(p *Params) { p.IndexCapacity = 64 }},
		{"MappingCache", func(p *Params) { p.MappingCache = 512 }},
		{"QueueDepth", func(p *Params) { p.QueueDepth = 8 }},
		{"BufferPages", func(p *Params) { p.BufferPages = 64 }},
		{"EraseLimit", func(p *Params) { p.EraseLimit = pinnedEraseLimit }},
	} {
		p := small(1)
		f.set(&p)
		add("Mail/cagc/"+f.name, Job{Workload: "mail", Scheme: "cagc", Params: p})
	}
	add("fleet4", Job{Kind: KindFleet, Workload: "mail", Scheme: "cagc",
		Params: Params{Requests: 1000}, Fleet: &FleetParams{Devices: 4, UtilSpread: 0.1, StaggerClasses: 2}})
	add("batch4", Job{Kind: KindBatch, Workload: "web-vm", Scheme: "baseline",
		Params: small(1), Seeds: []int64{1, 2, 3, 4}})

	for name, path := range map[string]string{"binary": tr.bin, "text": tr.text, "gzip": tr.gz} {
		add("replay/"+name, Job{Kind: KindReplay, Workload: "mail", Scheme: "cagc", Params: small(1), ReplayPath: path})
	}
	add("scenario3", Job{Kind: KindScenario, Scheme: "cagc", Params: small(1), Scenario: &ScenarioParams{
		Tenants:       []TenantSpec{{Workload: Homes}, {Workload: WebVM}, {Workload: Mail}},
		DiurnalPeriod: 5 * Millisecond, DiurnalAmp: 0.6, SLOUs: 300}})
	add("scenario-file", Job{Kind: KindScenario, Scheme: "cagc", Params: small(1), Scenario: &ScenarioParams{
		Tenants: []TenantSpec{{Name: "mailfile", Path: tr.bin}, {Workload: Homes}}, SLOUs: 500}})
	add("raid1-stagger-steer", Job{Kind: KindArray, Workload: "mail", Scheme: "cagc", Params: small(1),
		Array: &ArrayParams{Mode: "raid1", Stagger: true, Steer: true}})
	add("raid0", Job{Kind: KindArray, Workload: "mail", Scheme: "cagc", Params: small(1),
		Array: &ArrayParams{Mode: "raid0"}})
	// 130 devices fill three shards of 64; the worker count never
	// changes the fold.
	for _, w := range []int{1, 8} {
		add(fmt.Sprintf("fleet130/workers%d", w), Job{Kind: KindFleet, Workload: "mail", Scheme: "cagc",
			Params: Params{Requests: 200}, Fleet: &FleetParams{Devices: 130, Workers: w,
				UtilSpread: 0.08, StaggerClasses: 2, Diurnal: 0.4}})
	}
	// Tracing only observes: untraced, traced into an unbounded
	// recorder and traced into a 4 096-event flight recorder render one
	// document per workload.
	for _, ws := range []struct{ name, workload, scheme string }{
		{"Mail/cagc", "mail", "cagc"},
		{"Web-vm/baseline", "web-vm", "baseline"},
		{"Homes/inline", "homes", "inline"},
	} {
		for _, mode := range []struct {
			name string
			rec  *TraceRecorder
		}{
			{"untraced", nil},
			{"traced", NewTraceRecorder()},
			{"flight", NewFlightRecorder(4096)},
		} {
			add(fmt.Sprintf("%s/5000/%s", ws.name, mode.name), Job{Workload: ws.workload, Scheme: ws.scheme,
				Params: Params{Requests: 5000, Trace: mode.rec}})
		}
	}
	// The worker count never changes a batch's document.
	for _, w := range []int{1, 8} {
		add(fmt.Sprintf("batch8/workers%d", w), Job{Kind: KindSweep, Count: 8, Workers: w,
			Params: Params{Requests: 3000}})
	}
	return jobs
}

// A batch document is its members' documents concatenated in seed
// order: its first two are, byte for byte, the independent runs of
// seeds 1 and 2.
func TestBatchDocumentIsSerialRuns(t *testing.T) {
	execute := func(j Job) []byte {
		t.Helper()
		r, err := j.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return out.Doc
	}
	batch := execute(Job{Kind: KindSweep, Count: 8, Workers: 8, Params: Params{Requests: 3000}})
	var serial []byte
	for _, seed := range []int64{1, 2} {
		serial = append(serial, execute(Job{Workload: "mail", Scheme: "cagc", Params: Params{Requests: 3000, Seed: seed}})...)
	}
	if !bytes.HasPrefix(batch, serial) {
		t.Fatalf("batch document does not begin with the serial runs of seeds 1 and 2:\n%.400s\nwant prefix\n%.400s", batch, serial)
	}
}

// pinnedEraseLimit retires blocks in the Mail x CAGC run at 3 000
// requests, and the run still completes.
const pinnedEraseLimit = 2

// TestDocumentsPinned renders every pinned job, plus the serial-hash
// composition the overlap ablation runs, and compares each document's sha256
// with the recorded one.
func TestDocumentsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which moves the
		// last bits of floating-point fields.
		t.Skipf("documents pinned on amd64, not %s", runtime.GOARCH)
	}
	got := map[string]string{}
	for _, pj := range pinnedJobs(writePinnedTraces(t)) {
		r, err := pj.job.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", pj.name, err)
		}
		out, err := r.Execute()
		if err != nil {
			t.Fatalf("%s: %v", pj.name, err)
		}
		got[pj.name] = sha256Hex(out.Doc)
	}
	serial, err := cagcVariant(Params{Requests: 3000, Seed: 1}, func(o *ftl.Options) { o.HashAt = ftl.HashAtMigrateSerial })
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := WriteJSON(&doc, serial); err != nil {
		t.Fatal(err)
	}
	got["Mail/cagc-serial"] = sha256Hex(doc.Bytes())

	if len(got) != len(pinnedDocs) {
		t.Errorf("rendered %d documents, %d pinned", len(got), len(pinnedDocs))
	}
	for name, h := range got {
		if want, ok := pinnedDocs[name]; !ok || h != want {
			t.Errorf("%q: sha256 %s, pinned %s", name, h, want)
		}
	}
}

// The erase-limit document pins the retirement branch of a collection
// only if the run retires a block.
func TestPinnedEraseLimitRetires(t *testing.T) {
	res, err := Run(Mail, CAGC, "greedy", Params{Requests: 3000, Seed: 1, EraseLimit: pinnedEraseLimit})
	if err != nil {
		t.Fatal(err)
	}
	if res.FTL.BadBlocks == 0 {
		t.Fatalf("EraseLimit %d retires no block", pinnedEraseLimit)
	}
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// pinnedExperiments are the sha256 sums of every experiment's text
// report at 1 500 requests, one per id and one for RunAllExperiments
// ("all"). A change to the harness that moves one of them changes what
// `figures` prints.
var pinnedExperiments = map[string]string{
	"tableI":     "468ae778fc2b0c4be382f40ed57c70efb16e0ea2d7d1d21791ffb438ca26c274",
	"tableII":    "784bf9159b76316f90497a874555e99c537532f8f7735f66504d8ff0fe5fcf73",
	"fig2":       "713f84018dc1f6350ae3e9cb0c89325536a9a6c3e23f761a7f4ee370237a317f",
	"fig6":       "79b6829f8aafdc80a1eb00bcb47277ff6b9e800f19174299ba616246f1175e09",
	"fig8":       "3a689a68ad32952902a9d732e63f5795e4fd416837a20290c3d7d4ebf718e60d",
	"fig9":       "e391fb893d379ee779fae17a6a5f12f506c1aecaf0106d382f710b981519522d",
	"fig10":      "e391fb893d379ee779fae17a6a5f12f506c1aecaf0106d382f710b981519522d",
	"fig11":      "e4bd34f9e8f79a7d3b7ff7b017b313af3f78ce76d2e1683b71313a5a89b2834b",
	"fig12":      "47303e08cbc143cec1fe789f7998493299397448ea07d051b7aa4feebebdb43f",
	"fig13":      "70222ee3797ea2891bb9b15c178844d545a34f55735adcb1cf0f23381f1d3242",
	"throughput": "955ba638908ad6406720bb30f907c62e45e0fc56a504677e9b0c00cfd4bb67d2",
	"array":      "0676a1d37184a53338ab1b31435223d41782d06030866f8342587da80353e03d",
	"tenants":    "fdbef84bf96be560db0d39fb3c4011c5a0f5a0fc94808537d4eed40183042369",
	"ablations":  "f42d81370df45e2327f9ca9edbca3aebcc92bebf4effc07038afa75b1464fda4",
	"verify":     "7af0b1652ca7fb5e9cdb04daccfd746974d272e94381905e8c806c4424844ed3",
	"all":        "42cc87861e72c11ebdf3a03842f83188ad0830b5ff33cbf69787efa73629096d",
}

// TestExperimentsPinned renders every experiment report, and the
// combined one, and compares each report's sha256 with the recorded one.
func TestExperimentsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("reports pinned on amd64, not %s", runtime.GOARCH)
	}
	p := testParams()
	p.Requests = 1500
	got := map[string]string{}
	for _, id := range append(ExperimentIDs(), "all") {
		var out bytes.Buffer
		run := func() error { return RunExperiment(id, p, &out) }
		if id == "all" {
			run = func() error { return RunAllExperiments(p, &out) }
		}
		if err := run(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got[id] = sha256Hex(out.Bytes())
	}
	if len(got) != len(pinnedExperiments) {
		t.Errorf("rendered %d reports, %d pinned", len(got), len(pinnedExperiments))
	}
	for id, h := range got {
		if want, ok := pinnedExperiments[id]; !ok || h != want {
			t.Errorf("%q: sha256 %s, pinned %s", id, h, want)
		}
	}
}
