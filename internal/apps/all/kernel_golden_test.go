package all

import (
	"fmt"
	"hash/fnv"
	"testing"

	"bots/internal/core"
	"bots/internal/trace"
)

// kernelGolden pins, for the four kernels region.coarse spends its
// time in, what a rewrite of their inner loops must leave untouched:
// the sequential medium-class digest and work, the digest and task
// count of one 2-thread medium-class parallel run, and an FNV-64a of
// the binary encoding of the test-class trace recorded on one thread
// (task graph, work, writes and event positions: what sim.replay and
// every figure read). goldenDigests pins the test-class sequential
// digests only.
var kernelGolden = []struct {
	bench, version string
	seqDigest      string
	seqWork        int64
	parDigest      string
	parTasks       int64
	traceDigest    string
}{
	{"fft", "untied", "3b559854cdbcf4fe", 10485760, "3b559854cdbcf4fe", 4094, "e383b08642223fd6"},
	{"sort", "untied", "b5c57319aa4cc8ec", 50331648, "b5c57319aa4cc8ec", 71293, "b4bca9ea58f3aaae"},
	{"alignment", "untied", "7a521f320602da4f", 25447687, "7a521f320602da4f", 780, "6aa631c65dbfd7c3"},
	{"strassen", "none-tied", "e6f310a437b05d65", 96772096, "e6f310a437b05d65", 399, "0c26358ae85c5539"},
}

func traceDigest(tr *trace.Trace) (string, error) {
	h := fnv.New64a()
	if _, err := tr.WriteTo(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func TestKernelGoldenMedium(t *testing.T) {
	for _, g := range kernelGolden {
		t.Run(g.bench, func(t *testing.T) {
			b, err := core.Get(g.bench)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := b.Seq(core.Medium)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Digest != g.seqDigest {
				t.Errorf("medium sequential digest = %s, want %s", seq.Digest, g.seqDigest)
			}
			if seq.Work != g.seqWork {
				t.Errorf("medium sequential work = %d, want %d", seq.Work, g.seqWork)
			}
			par, err := b.Run(core.RunConfig{Class: core.Medium, Version: g.version, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if par.Digest != g.parDigest {
				t.Errorf("medium 2-thread %s digest = %s, want %s", g.version, par.Digest, g.parDigest)
			}
			if n := par.Stats.TotalTasks(); n != g.parTasks {
				t.Errorf("medium 2-thread %s TotalTasks = %d, want %d", g.version, n, g.parTasks)
			}
			rec := trace.NewRecorder()
			if _, err := b.Run(core.RunConfig{Class: core.Test, Version: g.version, Threads: 1, Recorder: rec}); err != nil {
				t.Fatal(err)
			}
			d, err := traceDigest(rec.Finish())
			if err != nil {
				t.Fatal(err)
			}
			if d != g.traceDigest {
				t.Errorf("test-class %s trace digest = %s, want %s", g.version, d, g.traceDigest)
			}
		})
	}
}
