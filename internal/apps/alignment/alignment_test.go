package alignment

import (
	"testing"
	"testing/quick"

	"bots/internal/core"
	"bots/internal/inputs"
)

func TestScoreIdenticalSequences(t *testing.T) {
	s := []byte("ARNDCQEGHILKMFPSTWYV")
	got, work := Score(s, s)
	if got != int32(len(s))*5 {
		t.Fatalf("self-alignment score = %d, want %d (all matches)", got, len(s)*5)
	}
	if work != int64(len(s))*int64(len(s)) {
		t.Fatalf("work = %d, want %d", work, len(s)*len(s))
	}
}

func TestScoreSymmetry(t *testing.T) {
	f := func(seedA, seedB uint16) bool {
		a := inputs.Proteins(1, 5, 60, uint64(seedA)+1)[0]
		b := inputs.Proteins(1, 5, 60, uint64(seedB)+7)[0]
		sa, _ := Score(a, b)
		sb, _ := Score(b, a)
		return sa == sb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// plainScore is Gotoh's recurrence over three separate DP rows,
// written directly from its definition: the oracle Score's inner loop
// is held to.
func plainScore(a, b []byte) int32 {
	lb := len(b)
	m, ix, iy := make([]int32, lb+1), make([]int32, lb+1), make([]int32, lb+1)
	ix[0], iy[0] = negInf, negInf
	for j := 1; j <= lb; j++ {
		m[j], ix[j], iy[j] = negInf, negInf, -gapOpen-gapExtend*int32(j)
	}
	for i := 1; i <= len(a); i++ {
		dm, dx, dy := m[0], ix[0], iy[0]
		m[0], ix[0], iy[0] = negInf, -gapOpen-gapExtend*int32(i), negInf
		for j := 1; j <= lb; j++ {
			om, ox, oy := m[j], ix[j], iy[j]
			m[j] = max(dm, dx, dy) + weight[aaIndex[a[i-1]]][aaIndex[b[j-1]]]
			ix[j] = max(om-gapOpen-gapExtend, ox-gapExtend)
			iy[j] = max(m[j-1]-gapOpen-gapExtend, iy[j-1]-gapExtend)
			dm, dx, dy = om, ox, oy
		}
	}
	return max(m[lb], ix[lb], iy[lb])
}

func TestScoreMatchesPlainRecurrence(t *testing.T) {
	f := func(seedA, seedB uint16) bool {
		a := inputs.Proteins(1, 1, 40, uint64(seedA)+3)[0]
		b := inputs.Proteins(1, 1, 40, uint64(seedB)+11)[0]
		s, _ := Score(a, b)
		return s == plainScore(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGapPenaltyStructure(t *testing.T) {
	a := []byte("AAAA")
	b := []byte("AAAAA") // one extra residue: one gap of length 1
	s, _ := Score(a, b)
	want := int32(4*5 - gapOpen - gapExtend)
	if s != want {
		t.Fatalf("score with single insertion = %d, want %d", s, want)
	}
	// A longer gap costs open + k·extend, not k·open.
	c := []byte("AAAAAAA") // gap of length 3
	s2, _ := Score(a, c)
	want2 := int32(4*5 - gapOpen - 3*gapExtend)
	if s2 != want2 {
		t.Fatalf("score with length-3 gap = %d, want %d (affine)", s2, want2)
	}
}

func TestEmptySequences(t *testing.T) {
	s, _ := Score(nil, []byte("ARND"))
	if s >= 0 {
		t.Fatalf("aligning against empty should be negative, got %d", s)
	}
}

func TestWeightMatrixSymmetric(t *testing.T) {
	for i := 0; i < 20; i++ {
		if weight[i][i] <= 0 {
			t.Fatalf("diagonal weight[%d][%d] = %d, want positive", i, i, weight[i][i])
		}
		for j := 0; j < 20; j++ {
			if weight[i][j] != weight[j][i] {
				t.Fatalf("weight matrix asymmetric at (%d,%d)", i, j)
			}
			if i != j && weight[i][j] >= weight[i][i] {
				t.Fatalf("mismatch weight[%d][%d]=%d not below match %d",
					i, j, weight[i][j], weight[i][i])
			}
		}
	}
}

func TestPairIndexBijection(t *testing.T) {
	n := 13
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := pairIndex(n, i, j)
			if k < 0 || k >= n*(n-1)/2 {
				t.Fatalf("pairIndex(%d,%d,%d) = %d out of range", n, i, j, k)
			}
			if seen[k] {
				t.Fatalf("pairIndex collision at (%d,%d)", i, j)
			}
			seen[k] = true
		}
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("pairIndex covered %d slots, want %d", len(seen), n*(n-1)/2)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	b, err := core.Get("alignment")
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

func TestTaskPerPair(t *testing.T) {
	b, _ := core.Get("alignment")
	res, err := b.Run(core.RunConfig{Class: core.Test, Version: "tied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := classParams[core.Test]
	want := int64(p.n * (p.n - 1) / 2)
	if res.Stats.TotalTasks() != want {
		t.Fatalf("tasks = %d, want one per pair = %d", res.Stats.TotalTasks(), want)
	}
}

func TestWorkParity(t *testing.T) {
	b, _ := core.Get("alignment")
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(core.RunConfig{Class: core.Test, Version: "untied", Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WorkUnits != seq.Work {
		t.Fatalf("work: parallel %d != sequential %d", res.Stats.WorkUnits, seq.Work)
	}
}
