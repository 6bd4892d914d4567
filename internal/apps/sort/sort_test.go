package sort

import (
	"slices"
	gosort "sort"
	"testing"
	"testing/quick"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

func TestInsertionSortSmall(t *testing.T) {
	a := []int32{5, 2, 9, 1, 5, 6, 0, -3}
	insertionSort(a)
	if !isSorted(a) {
		t.Fatalf("not sorted: %v", a)
	}
}

func TestSeqQuickMatchesStdlib(t *testing.T) {
	f := func(vals []int32) bool {
		mine := append([]int32(nil), vals...)
		ref := append([]int32(nil), vals...)
		seqQuick(mine)
		gosort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		if len(mine) != len(ref) {
			return false
		}
		for i := range mine {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSeqQuickAdversarialInputs sorts the inputs that defeat a naive
// pivot choice or partition, at 1<<16 and 1<<20 keys, and holds each
// to slices.Sort's output and to a generous time bound: ten times a
// random input's time at the same size, plus 50 ms. Without the
// equal-key guard, the Lomuto partition takes one pass per key on
// all-equal input, seconds at 1<<16; the smaller size runs first so
// such a build fails there instead of running for hours at 1<<20.
func TestSeqQuickAdversarialInputs(t *testing.T) {
	patterns := []struct {
		name string
		fill func(a []int32)
	}{
		{"all-equal", func(a []int32) {
			for i := range a {
				a[i] = 7
			}
		}},
		{"two-values", func(a []int32) {
			for i, v := range inputs.Ints32(len(a), 6) {
				a[i] = v & 1
			}
		}},
		{"sorted", func(a []int32) {
			for i := range a {
				a[i] = int32(i)
			}
		}},
		{"reversed", func(a []int32) {
			for i := range a {
				a[i] = int32(len(a) - i)
			}
		}},
		{"organ-pipe", func(a []int32) {
			for i := range a {
				a[i] = int32(min(i, len(a)-1-i))
			}
		}},
	}
	for _, n := range []int{1 << 16, 1 << 20} {
		random := inputs.Ints32(n, 5)
		start := time.Now()
		seqQuick(random)
		limit := 10*time.Since(start) + 50*time.Millisecond
		a := make([]int32, n)
		for _, p := range patterns {
			p.fill(a)
			want := slices.Clone(a)
			slices.Sort(want)
			start := time.Now()
			seqQuick(a)
			if took := time.Since(start); took > limit {
				t.Fatalf("%s, %d keys: %v, want <= %v", p.name, n, took, limit)
			}
			if !slices.Equal(a, want) {
				t.Fatalf("%s, %d keys: output differs from slices.Sort", p.name, n)
			}
		}
	}
}

func TestSeqMergeProperty(t *testing.T) {
	f := func(x, y []int32) bool {
		gosort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
		gosort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
		dest := make([]int32, len(x)+len(y))
		seqMerge(x, y, dest)
		return isSorted(dest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSeqMergeMatchesSortedConcat holds the branch-free merge to its
// contract: dest is exactly the sorted concatenation of a and b. Keys
// are drawn from a narrow range so runs of equal keys straddle the
// two inputs.
func TestSeqMergeMatchesSortedConcat(t *testing.T) {
	f := func(x, y []int8) bool {
		a, b := make([]int32, len(x)), make([]int32, len(y))
		for i, v := range x {
			a[i] = int32(v % 8)
		}
		for i, v := range y {
			b[i] = int32(v % 8)
		}
		gosort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		gosort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		want := append(append([]int32(nil), a...), b...)
		gosort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		dest := make([]int32, len(a)+len(b))
		seqMerge(a, b, dest)
		for i := range want {
			if dest[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinSplitLowerBound(t *testing.T) {
	a := []int32{1, 3, 3, 5, 7}
	cases := []struct {
		v    int32
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {7, 4}, {8, 5}}
	for _, tc := range cases {
		if got := binSplit(a, tc.v); got != tc.want {
			t.Errorf("binSplit(%v, %d) = %d, want %d", a, tc.v, got, tc.want)
		}
	}
}

func TestParMergeLargeArrays(t *testing.T) {
	a := inputs.Ints32(40000, 1)
	b := inputs.Ints32(30000, 2)
	seqQuick(a)
	seqQuick(b)
	dest := make([]int32, len(a)+len(b))
	r := newRun(4, false)
	omp.Parallel(4, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			r.parMerge(c, a, b, dest)
		})
	})
	if !isSorted(dest) {
		t.Fatal("parallel merge output not sorted")
	}
}

func TestParallelVersionsVerify(t *testing.T) {
	b, err := core.Get("sort")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range b.Versions {
		for _, threads := range []int{1, 3, 8} {
			res, err := b.Run(core.RunConfig{Class: core.Test, Version: version, Threads: threads})
			if err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if err := b.Check(seq, res); err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if res.Stats.TotalTasks() == 0 {
				t.Fatalf("%s/%d: no tasks created", version, threads)
			}
		}
	}
}

func TestDigestDetectsCorruption(t *testing.T) {
	a := inputs.Ints32(1000, 3)
	d1 := digest(a)
	a[500]++
	if digest(a) == d1 {
		t.Fatal("digest should change when the array changes")
	}
}
