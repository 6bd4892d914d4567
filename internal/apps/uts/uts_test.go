package uts

import (
	"testing"

	"bots/internal/core"
)

func TestTreeIsDeterministic(t *testing.T) {
	p := classParams[core.Test]
	if Seq(p) != Seq(p) {
		t.Fatal("UTS tree must be a pure function of its parameters")
	}
}

func TestTreeSizeScalesWithClass(t *testing.T) {
	sizes := map[core.Class]int64{}
	for _, c := range []core.Class{core.Test, core.Small, core.Medium} {
		sizes[c] = Seq(classParams[c])
	}
	if !(sizes[core.Test] < sizes[core.Small] && sizes[core.Small] < sizes[core.Medium]) {
		t.Fatalf("class sizes not increasing: %v", sizes)
	}
	if sizes[core.Test] < 100 {
		t.Fatalf("test tree only %d nodes; root branching alone should exceed that", sizes[core.Test])
	}
}

func TestChildHashAvalanche(t *testing.T) {
	// Sibling hashes must differ and child hashes must not equal the
	// parent's (no degenerate cycles).
	h := uint64(0xDEADBEEF)
	seen := map[uint64]bool{h: true}
	for i := 0; i < 16; i++ {
		c := childHash(h, i)
		if seen[c] {
			t.Fatalf("hash collision at child %d", i)
		}
		seen[c] = true
	}
}

func TestTreeIsUnbalanced(t *testing.T) {
	// The defining property: sibling subtree sizes vary wildly.
	p := classParams[core.Small]
	rootHash := uint64(99)
	var min, max int64 = 1 << 62, 0
	n := numChildren(rootHash, p, true)
	if n != p.b0 {
		t.Fatalf("root must have b0 children")
	}
	for i := 0; i < 64; i++ {
		var sink uint64
		s := seqCount(childHash(rootHash, i), 1, p, &sink)
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max < 10*min+10 {
		t.Fatalf("subtree sizes too uniform: min=%d max=%d (want heavy imbalance)", min, max)
	}
}

func TestAllVersionsCountTheSameTree(t *testing.T) {
	b, err := core.Get("uts")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range b.Versions {
		for _, threads := range []int{1, 4} {
			res, err := b.Run(core.RunConfig{Class: core.Test, Version: version, Threads: threads})
			if err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if err := b.Check(seq, res); err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
		}
	}
}

func TestWorkEqualsNodes(t *testing.T) {
	b, _ := core.Get("uts")
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(core.RunConfig{Class: core.Test, Version: "none-tied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WorkUnits != seq.Work {
		t.Fatalf("work %d != nodes %d", res.Stats.WorkUnits, seq.Work)
	}
	if res.Stats.TotalTasks() != seq.Work {
		t.Fatalf("no-cutoff should create one task per node: %d vs %d",
			res.Stats.TotalTasks(), seq.Work)
	}
}

func TestExtensionFlagSet(t *testing.T) {
	b, _ := core.Get("uts")
	if !b.Extension {
		t.Fatal("uts must be marked as a post-paper extension")
	}
}
