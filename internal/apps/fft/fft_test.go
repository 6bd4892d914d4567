package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"bots/internal/core"
	"bots/internal/inputs"
)

func close2(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestSeqMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		src := inputs.ComplexVector(n, 42)
		got, _ := Seq(src)
		want := Naive(src)
		for i := range got {
			if !close2(got[i], want[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d: FFT[%d] = %v, naive %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestTwiddleTableExact holds every level's slice of the twiddle
// table to the value the per-level math.Sincos it replaces computes,
// bit for bit.
func TestTwiddleTableExact(t *testing.T) {
	for n := 2; n <= 1<<12; n *= 2 {
		tw := twiddles(n)
		for m := 2; m <= n; m *= 2 {
			ang := -2 * math.Pi / float64(m)
			for k := 0; k < m/2; k++ {
				s, c := math.Sincos(ang * float64(k))
				got := tw[m/2+k]
				if math.Float64bits(real(got)) != math.Float64bits(c) || math.Float64bits(imag(got)) != math.Float64bits(s) {
					t.Fatalf("n=%d: w_%d^%d = %v, Sincos gives %v", n, m, k, got, complex(c, s))
				}
			}
		}
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	src := make([]complex128, 64)
	src[0] = 1
	out, _ := Seq(src)
	for i, v := range out {
		if !close2(v, 1, 1e-12) {
			t.Fatalf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
}

func TestConstantSignal(t *testing.T) {
	// FFT of a constant is an impulse of height n at bin 0.
	n := 128
	src := make([]complex128, n)
	for i := range src {
		src[i] = 2.5
	}
	out, _ := Seq(src)
	if !close2(out[0], complex(2.5*float64(n), 0), 1e-9) {
		t.Fatalf("DC bin = %v, want %v", out[0], 2.5*float64(n))
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(out[i]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", i, out[i])
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	for _, n := range []int{256, 1024} {
		src := inputs.ComplexVector(n, 7)
		out, _ := Seq(src)
		var eIn, eOut float64
		for i := range src {
			eIn += real(src[i])*real(src[i]) + imag(src[i])*imag(src[i])
			eOut += real(out[i])*real(out[i]) + imag(out[i])*imag(out[i])
		}
		if math.Abs(eOut/float64(n)-eIn) > 1e-6*eIn {
			t.Fatalf("n=%d: Parseval violated: in=%v out/n=%v", n, eIn, eOut/float64(n))
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	src := inputs.ComplexVector(4096, 99)
	out, _ := Seq(src)
	back := Inverse(out)
	for i := range src {
		if !close2(back[i], src[i], 1e-9) {
			t.Fatalf("round-trip[%d] = %v, want %v", i, back[i], src[i])
		}
	}
}

func TestParallelBitIdenticalToSeq(t *testing.T) {
	b, err := core.Get("fft")
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
			// Same decomposition ⇒ identical rounding ⇒ exact digest.
			if err := b.Check(seq, res); err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if res.Stats.TotalTasks() == 0 {
				t.Fatalf("%s/%d: no tasks", version, threads)
			}
		}
	}
}

func TestWorkParity(t *testing.T) {
	b, _ := core.Get("fft")
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(core.RunConfig{Class: core.Test, Version: "tied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WorkUnits != seq.Work {
		t.Fatalf("work units: parallel %d != sequential %d", res.Stats.WorkUnits, seq.Work)
	}
}
