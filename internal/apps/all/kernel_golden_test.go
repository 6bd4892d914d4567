package all

import (
	"fmt"
	"hash/fnv"
	"testing"

	"bots/internal/core"
	"bots/internal/trace"
)

// kernelGolden pins, for the kernels region.coarse and sim.replay
// spend their time in, what a rewrite of their inner loops must leave
// untouched: the sequential digest and work at the row's class, the
// digest and task count of one 2-thread parallel run at that class,
// and an FNV-64a of the binary encoding of the test-class trace
// recorded on one thread (task graph, work, writes and event
// positions: what sim.replay and every figure read). goldenDigests
// pins the test-class sequential digests only.
//
// sparselu is here for its trailing update bmod, the O(bs³) loop of
// the factorization: dep-tied at medium is the recording sim.replay
// sets up, and for-tied at small is the version region.coarse runs.
// nqueens is here for its search, which finds each node's free columns
// from the attack masks it carries down the tree: manual-untied is the
// version region.coarse runs and none-untied the one
// region.finegrain runs, which spawns every node of the search.
var kernelGolden = []kernelPin{
	{"fft", "untied", core.Medium, "3b559854cdbcf4fe", 10485760, "3b559854cdbcf4fe", 4094, "e383b08642223fd6"},
	{"sort", "untied", core.Medium, "b5c57319aa4cc8ec", 50331648, "b5c57319aa4cc8ec", 71293, "b4bca9ea58f3aaae"},
	{"alignment", "untied", core.Medium, "7a521f320602da4f", 25447687, "7a521f320602da4f", 780, "6aa631c65dbfd7c3"},
	{"strassen", "none-tied", core.Medium, "e6f310a437b05d65", 96772096, "e6f310a437b05d65", 399, "0c26358ae85c5539"},
	{"sparselu", "dep-tied", core.Medium, "63b7ece3622841e5", 1041629184, "63b7ece3622841e5", 9905, "8c7f634c451b8997"},
	{"sparselu", "for-tied", core.Small, "0a8d3a33878c2a16", 34056864, "0a8d3a33878c2a16", 1141, "97e6d2553b9c7db6"},
	{"nqueens", "manual-untied", core.Medium, "nqueens(12)=14200", 8214717, "nqueens(12)=14200", 879, "6955e30f1519a1a1"},
	{"nqueens", "none-untied", core.Medium, "nqueens(12)=14200", 8214717, "nqueens(12)=14200", 856189, "192c75fcfcee8371"},
}

// kernelPin is one version's pinned figures at one class.
type kernelPin struct {
	bench, version string
	class          core.Class
	seqDigest      string
	seqWork        int64
	parDigest      string
	parTasks       int64
	traceDigest    string
}

func traceDigest(tr *trace.Trace) (string, error) {
	h := fnv.New64a()
	if _, err := tr.WriteTo(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func TestKernelGoldenMedium(t *testing.T) { checkKernelGolden(t, core.Medium) }

func TestKernelGoldenSmall(t *testing.T) { checkKernelGolden(t, core.Small) }

// checkKernelGolden checks every kernelGolden row at class. A
// benchmark with more than one row at class names its subtests by
// version.
func checkKernelGolden(t *testing.T, class core.Class) {
	rows := map[string]int{}
	for _, g := range kernelGolden {
		if g.class == class {
			rows[g.bench]++
		}
	}
	for _, g := range kernelGolden {
		if g.class != class {
			continue
		}
		name := g.bench
		if rows[g.bench] > 1 {
			name += "/" + g.version
		}
		t.Run(name, func(t *testing.T) { checkKernelPin(t, g) })
	}
}

// utsGolden pins uts the same way at medium and large class (large
// is what region.irregular and sim.replay run), and utsTraceGolden the
// test-class trace of every uts version: the if versions take the
// undeferred spawn below the cut-off, the none versions spawn every
// node and the manual versions recurse past it.
var utsGolden = []kernelPin{
	{"uts", "manual-untied", core.Medium, "uts-nodes=101609", 101609, "uts-nodes=101609", 31189, "b1d789e5b3738f56"},
	{"uts", "manual-untied", core.Large, "uts-nodes=283173", 283173, "uts-nodes=283173", 65493, "b1d789e5b3738f56"},
}

var utsTraceGolden = map[string]string{
	"if-tied":       "3aca11f25f5ab3f5",
	"if-untied":     "66c30d27f8b484da",
	"manual-tied":   "6b318b4e9e604df9",
	"manual-untied": "b1d789e5b3738f56",
	"none-tied":     "262fc34f37c52367",
	"none-untied":   "b7f14fb2696e8c24",
}

func TestUTSGolden(t *testing.T) {
	for _, g := range utsGolden {
		t.Run(g.class.String(), func(t *testing.T) { checkKernelPin(t, g) })
	}
	b, err := core.Get("uts")
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range b.Versions {
		if d := recordedDigest(t, b, version); d != utsTraceGolden[version] {
			t.Errorf("test-class %s trace digest = %s, want %s", version, d, utsTraceGolden[version])
		}
	}
}

// checkKernelPin runs g's sequential and 2-thread parallel versions at
// g.class and records its test-class trace on one thread.
func checkKernelPin(t *testing.T, g kernelPin) {
	t.Helper()
	class := g.class
	b, err := core.Get(g.bench)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := b.Seq(class)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Digest != g.seqDigest {
		t.Errorf("%s sequential digest = %s, want %s", class, seq.Digest, g.seqDigest)
	}
	if seq.Work != g.seqWork {
		t.Errorf("%s sequential work = %d, want %d", class, seq.Work, g.seqWork)
	}
	par, err := b.Run(core.RunConfig{Class: class, Version: g.version, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if par.Digest != g.parDigest {
		t.Errorf("%s 2-thread %s digest = %s, want %s", class, g.version, par.Digest, g.parDigest)
	}
	if n := par.Stats.TotalTasks(); n != g.parTasks {
		t.Errorf("%s 2-thread %s TotalTasks = %d, want %d", class, g.version, n, g.parTasks)
	}
	if d := recordedDigest(t, b, g.version); d != g.traceDigest {
		t.Errorf("test-class %s trace digest = %s, want %s", g.version, d, g.traceDigest)
	}
}

// recordedDigest is the traceDigest of b's test-class version recorded
// on one thread.
func recordedDigest(t *testing.T, b *core.Benchmark, version string) string {
	t.Helper()
	rec := trace.NewRecorder()
	if _, err := b.Run(core.RunConfig{Class: core.Test, Version: version, Threads: 1, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	d, err := traceDigest(rec.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return d
}
