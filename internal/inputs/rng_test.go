package inputs

import (
	"math"
	"testing"
)

// checkCountBernoulli compares CountBernoulli(n, p) with n Bernoulli(p)
// calls on two copies of one generator: the counts must agree, and so
// must the next draw after them.
func checkCountBernoulli(t *testing.T, seed uint64, n int, p float64) {
	t.Helper()
	batched, single := NewRNG(seed), NewRNG(seed)
	got := batched.CountBernoulli(n, p)
	want := 0
	for i := 0; i < n; i++ {
		if single.Bernoulli(p) {
			want++
		}
	}
	if got != want {
		t.Errorf("seed %d n %d p %v: CountBernoulli = %d, %d Bernoulli calls = %d", seed, n, p, got, n, want)
	}
	if a, b := batched.Uint64(), single.Uint64(); a != b {
		t.Errorf("seed %d n %d p %v: next draw %#x after CountBernoulli, %#x after Bernoulli", seed, n, p, a, b)
	}
}

// TestCountBernoulliMatchesBernoulli pins the batched draw to the
// per-call one over the probabilities the kernels use, the degenerate
// ones (0, 1, out of range, NaN, infinities, a subnormal, one whose
// p·2⁵³ overflows), the largest p below 1 (the top integer cut), and a
// p equal to one of the stream's own draws, the tie where < must say
// false, once with that draw's dropped low 11 bits all zero, so it
// sits exactly on the integer cut.
func TestCountBernoulliMatchesBernoulli(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0x4EA17400, math.MaxUint64} {
		tie := NewRNG(seed)
		tie.Uint64()
		tie.Uint64()
		onDraw := tie.Float64() // the third draw: p·2⁵³ is an integer the stream hits exactly
		ps := []float64{0, 0.02, 0.25, 0.5, 1, -1, 2, math.NaN(),
			math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, math.Nextafter(1, 0),
			onDraw, math.Nextafter(onDraw, 1)}
		for _, n := range []int{0, 1, 7, 810} {
			for _, p := range ps {
				checkCountBernoulli(t, seed, n, p)
			}
		}
	}
	r := NewRNG(1)
	n, x := 1, r.Uint64()
	for x&0x7ff != 0 {
		n, x = n+1, r.Uint64()
	}
	checkCountBernoulli(t, 1, n, float64(x>>11)/(1<<53))
}

func FuzzCountBernoulli(f *testing.F) {
	for _, p := range []float64{0, 0.02, 0.4, 1, -1, 2, math.NaN()} {
		f.Add(uint64(0x4EA17400), 810, p)
		f.Add(uint64(7), 1, p)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n int, p float64) {
		checkCountBernoulli(t, seed, n%4097, p)
	})
}

// BenchmarkCountBernoulli reports ns per draw of health's new-patient
// loop: 810 draws at p = 0.02 per test-class village step.
func BenchmarkCountBernoulli(b *testing.B) {
	const n, p = 810, 0.02
	r, sum := NewRNG(1), 0
	for i := 0; i < b.N; i++ {
		sum += r.CountBernoulli(n, p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
	sink = sum
}

var sink int
