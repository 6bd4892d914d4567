package fft

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
	"bots/internal/trace"
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

// refFFT is the strided recursion with no unshuffle, the reference
// seqTransform and parTransform must match bit for bit: every leaf
// reads its input at the stride of its level.
func refFFT(in, out, tw []complex128, n, stride int) int64 {
	if n == 1 {
		out[0] = in[0]
		return 1
	}
	h := n / 2
	work := refFFT(in, out[:h], tw, h, stride*2) +
		refFFT(in[stride:], out[h:], tw, h, stride*2)
	return work + combine(out, tw, n)
}

func refSeq(src []complex128) ([]complex128, int64) {
	out := make([]complex128, len(src))
	w := refFFT(src, out, twiddles(len(src)), len(src), 1)
	return out, w
}

func refInverse(src []complex128) []complex128 {
	conj := make([]complex128, len(src))
	for i, v := range src {
		conj[i] = complex(real(v), -imag(v))
	}
	out, _ := refSeq(conj)
	inv := 1 / float64(len(src))
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, g, w)
		}
	}
}

// parRecord runs fn in a 2-thread region, or a recorded 1-thread one
// when rec is non-nil, and returns its stats.
func parRecord(rec *trace.Recorder, fn func(c *omp.Context)) *omp.Stats {
	threads, opts := 2, []omp.TeamOpt(nil)
	if rec != nil {
		threads, opts = 1, []omp.TeamOpt{omp.WithRecorder(rec)}
	}
	return omp.Parallel(threads, func(c *omp.Context) { c.Single(fn) }, opts...)
}

func encoded(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.Finish().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnshuffleMatchesStridedReference holds Seq, Inverse and a
// 2-thread parTransform to refFFT, bit for bit, on sizes either side
// of unshuffleSize, and parTransform's work, task count and recorded
// trace to those of parFFT run from the root with no unshuffle.
func TestUnshuffleMatchesStridedReference(t *testing.T) {
	for n := 1 << 11; n <= 1<<15; n *= 2 {
		src := inputs.ComplexVector(n, 5)
		want, wantWork := refSeq(src)
		got, work := Seq(src)
		sameBits(t, "Seq", got, want)
		if work != wantWork {
			t.Fatalf("n=%d: Seq work %d, reference %d", n, work, wantWork)
		}
		sameBits(t, "Inverse", Inverse(got), refInverse(want))

		tw := twiddles(n)
		par := func(out []complex128) func(c *omp.Context) {
			a, b := scratch(n)
			return func(c *omp.Context) { parTransform(c, src, out, tw, a, b, true) }
		}
		strided := func(out []complex128) func(c *omp.Context) {
			return func(c *omp.Context) { parFFT(c, src, out, tw, n, 1, true) }
		}
		out, refOut := make([]complex128, n), make([]complex128, n)
		st, refSt := parRecord(nil, par(out)), parRecord(nil, strided(refOut))
		sameBits(t, "parTransform", out, want)
		sameBits(t, "strided parFFT", refOut, want)
		if st.WorkUnits != wantWork || st.TotalTasks() != refSt.TotalTasks() {
			t.Fatalf("n=%d: parTransform work %d, %d tasks; strided parFFT work %d, %d tasks",
				n, st.WorkUnits, st.TotalTasks(), wantWork, refSt.TotalTasks())
		}
		rec, refRec := trace.NewRecorder(), trace.NewRecorder()
		parRecord(rec, par(make([]complex128, n)))
		parRecord(refRec, strided(make([]complex128, n)))
		if !bytes.Equal(encoded(t, rec), encoded(t, refRec)) {
			t.Fatalf("n=%d: parTransform's trace differs from the strided parFFT's", n)
		}
	}

	// The test class never unshuffles; its registered runs must match too.
	b, err := core.Get("fft")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refSeq(inputs.ComplexVector(classN[core.Test], inputSeed))
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(core.RunConfig{Class: core.Test, Version: "untied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := digest(want); seq.Digest != d || res.Digest != d {
		t.Fatalf("test class: seq digest %s, 2-thread %s, reference %s", seq.Digest, res.Digest, d)
	}
}
