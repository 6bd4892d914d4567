package strassen

import (
	"math"
	"testing"

	"bots/internal/core"
	"bots/internal/inputs"
)

func TestSeqMatchesNaiveSmall(t *testing.T) {
	// 128 recurses once (base 64), so the Strassen path is exercised.
	for _, n := range []int{64, 128} {
		a := inputs.Matrix(n, 1)
		b := inputs.Matrix(n, 2)
		got, _ := Seq(a, b, n)
		want := Naive(a, b, n)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: c[%d] = %v, naive %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestMatmulAddBitIdentical holds the unrolled base multiply to the
// plain i-k-j loop bit for bit, for even and odd n (the remainder
// step) on views whose leading dimension exceeds n.
func TestMatmulAddBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 31, 64} {
		ld := n + 3
		a, b := inputs.Matrix(ld, 5), inputs.Matrix(ld, 6)
		got, want := inputs.Matrix(ld, 7), inputs.Matrix(ld, 7)
		matmulAdd(view{got, ld}, view{a, ld}, view{b, ld}, n)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				for j := 0; j < n; j++ {
					want[i*ld+j] += a[i*ld+k] * b[k*ld+j]
				}
			}
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: c[%d] = %v, plain loop %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestIdentityMultiplication(t *testing.T) {
	n := 128
	a := inputs.Matrix(n, 3)
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c, _ := Seq(a, id, n)
	for i := range a {
		if math.Abs(c[i]-a[i]) > 1e-12 {
			t.Fatalf("A·I diverges from A at %d: %v vs %v", i, c[i], a[i])
		}
	}
}

// TestFreivalds probabilistically verifies a large product: for
// random vector x, A(Bx) must equal (AB)x.
func TestFreivalds(t *testing.T) {
	n := 256
	a := inputs.Matrix(n, 4)
	b := inputs.Matrix(n, 5)
	c, _ := Seq(a, b, n)
	r := inputs.NewRNG(99)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	matVec := func(m []float64, v []float64) []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			row := m[i*n : i*n+n]
			for j := 0; j < n; j++ {
				s += row[j] * v[j]
			}
			out[i] = s
		}
		return out
	}
	bx := matVec(b, x)
	abx := matVec(a, bx)
	cx := matVec(c, x)
	for i := range cx {
		if math.Abs(cx[i]-abx[i]) > 1e-6*float64(n) {
			t.Fatalf("Freivalds check failed at %d: %v vs %v", i, cx[i], abx[i])
		}
	}
}

func TestAllVersionsVerify(t *testing.T) {
	bm, err := core.Get("strassen")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := bm.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range bm.Versions {
		for _, threads := range []int{1, 4} {
			res, err := bm.Run(core.RunConfig{Class: core.Test, Version: version, Threads: threads})
			if err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			// Identical decomposition ⇒ bit-identical result.
			if err := bm.Check(seq, res); err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
		}
	}
}

func TestWorkParity(t *testing.T) {
	bm, _ := core.Get("strassen")
	seq, err := bm.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"none-tied", "manual-untied", "if-tied"} {
		res, err := bm.Run(core.RunConfig{Class: core.Test, Version: v, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.WorkUnits != seq.Work {
			t.Fatalf("%s: work units %d != sequential %d", v, res.Stats.WorkUnits, seq.Work)
		}
	}
}

func TestManualCutoffTaskCount(t *testing.T) {
	bm, _ := core.Get("strassen")
	man, err := bm.Run(core.RunConfig{Class: core.Test, Version: "manual-tied", Threads: 2, CutoffDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 128→64 is one level: cut-off 1 defers only the first level's 7 tasks.
	if man.Stats.TotalTasks() != 7 {
		t.Fatalf("tasks at cut-off depth 1 on 128 = %d, want 7", man.Stats.TotalTasks())
	}
}

func TestViewSubIndexing(t *testing.T) {
	n := 4
	m := make([]float64, n*n)
	for i := range m {
		m[i] = float64(i)
	}
	v := view{m, n}
	q := v.sub(2, 2)
	if q.d[0] != float64(2*n+2) || q.d[q.ld+1] != float64(3*n+3) {
		t.Fatalf("sub(2,2) wrong: %v %v", q.d[0], q.d[q.ld+1])
	}
}

// TestFutureVersionUsesFutures checks the future-based versions go
// through Spawn/Wait: on the small class the recursion nests, so
// inner Waits must block (and execute other products meanwhile).
func TestFutureVersionUsesFutures(t *testing.T) {
	bm, _ := core.Get("strassen")
	seq, err := bm.Seq(core.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []string{"future-tied", "future-untied"} {
		res, err := bm.Run(core.RunConfig{Class: core.Small, Version: version, Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", version, err)
		}
		if err := bm.Check(seq, res); err != nil {
			t.Fatalf("%s: %v", version, err)
		}
		if res.Stats.FutureWaits == 0 {
			t.Errorf("%s: FutureWaits = 0, want > 0 (nested recursion must block on futures)", version)
		}
		if res.Stats.Taskwaits != 0 {
			t.Errorf("%s: Taskwaits = %d, want 0 (futures replace taskwait)", version, res.Stats.Taskwaits)
		}
		if res.Stats.WorkUnits != seq.Work {
			t.Errorf("%s: work %d != sequential %d", version, res.Stats.WorkUnits, seq.Work)
		}
	}
}
