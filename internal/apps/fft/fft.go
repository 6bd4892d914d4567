// Package fft implements the BOTS FFT benchmark: the one-dimensional
// Fast Fourier Transform of a vector of n complex values with the
// Cooley–Tukey algorithm, a divide-and-conquer that recursively
// splits a DFT into two half-size DFTs; each division generates
// tasks, with the actual butterflies at the leaves. (The original
// Cilk code specializes many base-case codelets, which is why the
// paper counts 41 task directives; this port keeps the same task
// topology with a single generic recursion.) As in the original's
// compute_w_coefficients, the twiddle factors are computed once per
// run, n/2 math.Sincos calls, into a table every level of the
// recursion reads. As the original's fft_aux does, a sub-transform
// of more than unshuffleSize points first unshuffles its input, even
// elements into one contiguous half of a scratch buffer and odd ones
// into the other, so that no leaf gathers its input at a stride of
// up to n/2.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const inputSeed = 0xFF7C001

// leafSize is the sub-transform size at and below which the
// recursion runs sequentially (the leaf-task granularity).
const leafSize = 256

var classN = map[core.Class]int{
	core.Test:   1 << 12,
	core.Small:  1 << 16,
	core.Medium: 1 << 19,
	core.Large:  1 << 21,
}

const capturedBytes = 56 // two slice headers + stride/size ints

// unshuffleSize is the sub-transform size above which the recursion
// unshuffles its input into contiguous halves before recursing: at
// and below it, a sub-transform's strided input (64 KiB of complex128
// at 4 096 points) stays in cache. 4 096 measured best on a 2-CPU
// Xeon VM.
const unshuffleSize = 4096

// twiddles returns the twiddle factors of every level of a size-n
// transform (n a power of two), level by level: the m/2 factors
// w_m^k = e^(-2πik/m), k < m/2, of the size-m combine sit at
// tw[m/2:m]. Only the top level calls math.Sincos; each lower level
// copies every second factor of the level above (w_m^k = w_2m^2k).
// Both are exact: m is a power of two, so fl(-2π)/m·k and
// fl(-2π)/(2m)·(2k) are the same float64, and every entry is the
// value a per-level math.Sincos computes. One level per contiguous
// slice keeps a leaf's factors in consecutive cache lines rather
// than n/m entries apart.
func twiddles(n int) []complex128 {
	tw := make([]complex128, n)
	ang := -2 * math.Pi / float64(n)
	top := tw[n/2:]
	for k := range top {
		s, c := math.Sincos(ang * float64(k))
		top[k] = complex(c, s)
	}
	for m := n / 2; m >= 2; m /= 2 {
		lvl, up := tw[m/2:m], tw[m:2*m]
		for k := range lvl {
			lvl[k] = up[2*k]
		}
	}
	return tw
}

// seqFFT computes the DFT of in (viewed with the given stride) into
// out, recursively, and returns the work performed. tw is the
// twiddle table of the whole transform. It is both the lower levels
// of the sequential transform and the leaf case of the parallel
// version, so sequential and parallel runs produce bit-identical
// results.
func seqFFT(in, out, tw []complex128, n, stride int) int64 {
	if n == 1 {
		out[0] = in[0]
		return 1
	}
	h := n / 2
	work := seqFFT(in, out[:h], tw, n/2, stride*2) +
		seqFFT(in[stride:], out[h:], tw, n/2, stride*2)
	return work + combine(out, tw, n)
}

// unshuffle copies the even elements of in[:len(dst)] into the first
// half of dst and the odd ones into the second.
func unshuffle(dst, in []complex128) {
	h := len(dst) / 2
	ev, od, in := dst[:h], dst[h:], in[:len(dst)]
	for k := range ev {
		ev[k] = in[2*k]
		od[k] = in[2*k+1]
	}
}

// scratch returns the two buffers a size-n transform unshuffles
// through, nil when it never unshuffles.
func scratch(n int) (a, b []complex128) {
	if n <= unshuffleSize {
		return nil, nil
	}
	return make([]complex128, n), make([]complex128, n)
}

// seqTransform computes the DFT of the contiguous in into out and
// returns the work performed. Above unshuffleSize it unshuffles in
// into a, whose halves are then the contiguous inputs of the two
// half-size transforms; each of those unshuffles, in turn, into its
// half of b and takes its own half of a, already read, as the next
// level's scratch. It computes what seqFFT(in, out, tw, len(in), 1)
// does, bit for bit: the copies move values, not arithmetic.
func seqTransform(in, out, tw, a, b []complex128) int64 {
	n := len(in)
	if n <= unshuffleSize {
		return seqFFT(in, out, tw, n, 1)
	}
	h := n / 2
	unshuffle(a, in)
	work := seqTransform(a[:h], out[:h], tw, b[:h], a[:h]) +
		seqTransform(a[h:], out[h:], tw, b[h:], a[h:])
	return work + combine(out, tw, n)
}

// combine performs the butterfly pass merging the two half-transforms
// stored in out's halves, in place, with the twiddle factors of size
// n taken from tw. It returns the work performed.
func combine(out, tw []complex128, n int) int64 {
	h := n / 2
	lo, hi, w := out[:h], out[h:n], tw[h:n]
	for k := range lo {
		e, o := lo[k], hi[k]
		t := w[k] * o
		lo[k] = e + t
		hi[k] = e - t
	}
	return int64(n)
}

// Seq computes the FFT of src into a fresh slice and returns it with
// the work performed.
func Seq(src []complex128) ([]complex128, int64) {
	out := make([]complex128, len(src))
	a, b := scratch(len(src))
	w := seqTransform(src, out, twiddles(len(src)), a, b)
	return out, w
}

// Naive computes the DFT by direct summation; the O(n²) oracle used
// for output validation on small sizes.
func Naive(src []complex128) []complex128 {
	n := len(src)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s, c := math.Sincos(ang)
			sum += src[j] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

// Inverse computes the inverse FFT (for round-trip verification).
func Inverse(src []complex128) []complex128 {
	a, b := scratch(len(src))
	return inverse(src, twiddles(len(src)), a, b)
}

// inverse is Inverse with the forward transform's twiddle table tw
// and scratch a and b: it conjugates, transforms forward and
// conjugates back.
func inverse(src, tw, a, b []complex128) []complex128 {
	n := len(src)
	conj := make([]complex128, n)
	for i, v := range src {
		conj[i] = complex(real(v), -imag(v))
	}
	out := make([]complex128, n)
	seqTransform(conj, out, tw, a, b)
	inv := 1 / float64(n)
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out
}

// parTransform is seqTransform's task-parallel counterpart: a node
// above unshuffleSize unshuffles its input before it spawns the two
// half-size transforms, and the levels below are parFFT's. Its tasks,
// work and writes are parFFT(c, in, out, tw, len(in), 1, untied)'s.
func parTransform(c *omp.Context, in, out, tw, a, b []complex128, untied bool) {
	n := len(in)
	if n <= unshuffleSize {
		parFFT(c, in, out, tw, n, 1, untied)
		return
	}
	h := n / 2
	unshuffle(a, in)
	opts := core.TaskOpts(capturedBytes, untied, omp.TaskOpt{})
	c.Task(func(c *omp.Context) { parTransform(c, a[:h], out[:h], tw, b[:h], a[:h], untied) }, opts[:]...)
	c.Task(func(c *omp.Context) { parTransform(c, a[h:], out[h:], tw, b[h:], a[h:], untied) }, opts[:]...)
	c.Taskwait()
	c.AddWork(combine(out, tw, n))
	c.AddWrites(0, int64(n))
}

// parFFT is the task-parallel recursion: each division spawns two
// half-size transforms; leaves run sequentially.
func parFFT(c *omp.Context, in, out, tw []complex128, n, stride int, untied bool) {
	if n <= leafSize {
		c.AddWork(seqFFT(in, out, tw, n, stride))
		c.AddWrites(int64(n), int64(n)) // butterfly writes: half local reuse, half shared output
		return
	}
	h := n / 2
	opts := core.TaskOpts(capturedBytes, untied, omp.TaskOpt{})
	c.Task(func(c *omp.Context) { parFFT(c, in, out[:h], tw, h, stride*2, untied) }, opts[:]...)
	c.Task(func(c *omp.Context) { parFFT(c, in[stride:], out[h:], tw, h, stride*2, untied) }, opts[:]...)
	c.Taskwait()
	c.AddWork(combine(out, tw, n))
	c.AddWrites(0, int64(n))
}

func digest(a []complex128) string {
	d := core.NewDigest()
	d.Complex128s(a)
	return d.String()
}

func seqRun(class core.Class) (*core.SeqResult, error) {
	n := classN[class]
	src := inputs.ComplexVector(n, inputSeed)
	out := make([]complex128, n)
	a, b := scratch(n)
	start := time.Now()
	tw := twiddles(n)
	work := seqTransform(src, out, tw, a, b)
	elapsed := time.Since(start)
	// Output validation: the round trip must recover the input.
	back := inverse(out, tw, a, b)
	for i := range src {
		if d := back[i] - src[i]; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
			return nil, fmt.Errorf("fft: inverse round-trip error at %d: %v", i, d)
		}
	}
	return &core.SeqResult{
		Digest:   digest(out),
		Work:     work,
		Elapsed:  elapsed,
		MemBytes: int64(n) * 32,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	n := classN[cfg.Class]
	if bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("fft: size %d is not a power of two", n)
	}
	src := inputs.ComplexVector(n, inputSeed)
	out := make([]complex128, n)
	a, b := scratch(n)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			parTransform(c, src, out, twiddles(n), a, b, variant.Untied)
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	return &core.RunResult{Digest: digest(out), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "fft",
		Origin:         "Cilk",
		Domain:         "Spectral method",
		Structure:      "At leafs",
		TaskDirectives: 2,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "none",
		Versions:       core.PlainVersions(),
		BestVersion:    "untied",
		Profile:        core.Profile{MemFraction: 0.65, BandwidthCap: 6},
		Seq:            seqRun,
		Run:            parRun,
	})
}
