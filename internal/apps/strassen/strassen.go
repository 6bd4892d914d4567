// Package strassen implements the BOTS Strassen benchmark:
// multiplication of large dense matrices by Strassen's hierarchical
// decomposition. Each dimension is halved per level; the seven
// half-size products become tasks, and a depth-based cut-off (or
// none) bounds task creation. Below the base-case size a standard
// O(n³) multiply runs sequentially.
package strassen

import (
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const (
	inputSeedA = 0x57A55E11
	inputSeedB = 0x57A55E12
	// baseSize is the matrix dimension at which the recursion bottoms
	// out into a standard multiply.
	baseSize = 64
)

// DefaultCutoffDepth is the default recursion depth for the if/manual
// cut-off versions.
const DefaultCutoffDepth = 2

const capturedBytes = 88 // three matrix views + geometry

var classN = map[core.Class]int{
	core.Test:   128,
	core.Small:  256,
	core.Medium: 512,
	core.Large:  1024,
}

// view is an n×n submatrix of a row-major array with leading
// dimension ld.
type view struct {
	d  []float64
	ld int
}

func (v view) sub(i, j int) view {
	return view{d: v.d[i*v.ld+j:], ld: v.ld}
}

func newView(n int) view { return view{d: make([]float64, n*n), ld: n} }

// matmulAdd computes c += a·b (n×n) in i-k-j order. The k-loop is
// unrolled by two: ci[j] + a0*b0[j] + a1*b1[j] evaluates left to
// right, rounding exactly as two successive ci[j] += aik*bk[j]
// updates do, so the result is bit-identical to the plain loop with
// one load and store of ci[j] per two products.
func matmulAdd(c, a, b view, n int) {
	for i := 0; i < n; i++ {
		ci := c.d[i*c.ld : i*c.ld+n]
		ai := a.d[i*a.ld : i*a.ld+n]
		k := 0
		for ; k+1 < n; k += 2 {
			a0, a1 := ai[k], ai[k+1]
			b0 := b.d[k*b.ld : k*b.ld+n]
			b1 := b.d[(k+1)*b.ld : (k+1)*b.ld+n]
			b0, b1 = b0[:len(ci)], b1[:len(ci)] // no bounds checks in the j-loop
			for j := range ci {
				ci[j] = ci[j] + a0*b0[j] + a1*b1[j]
			}
		}
		for ; k < n; k++ {
			aik := ai[k]
			bk := b.d[k*b.ld : k*b.ld+n]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

func zero(c view, n int) {
	for i := 0; i < n; i++ {
		row := c.d[i*c.ld : i*c.ld+n]
		for j := range row {
			row[j] = 0
		}
	}
}

// add computes dst = x + y; sub computes dst = x − y (n×n views).
func add(dst, x, y view, n int) {
	for i := 0; i < n; i++ {
		di, xi, yi := dst.d[i*dst.ld:i*dst.ld+n], x.d[i*x.ld:i*x.ld+n], y.d[i*y.ld:i*y.ld+n]
		for j := 0; j < n; j++ {
			di[j] = xi[j] + yi[j]
		}
	}
}

func sub(dst, x, y view, n int) {
	for i := 0; i < n; i++ {
		di, xi, yi := dst.d[i*dst.ld:i*dst.ld+n], x.d[i*x.ld:i*x.ld+n], y.d[i*y.ld:i*y.ld+n]
		for j := 0; j < n; j++ {
			di[j] = xi[j] - yi[j]
		}
	}
}

// env carries the execution mode through the recursion: a live omp
// context for parallel runs (work reported to the runtime) or a plain
// accumulator for sequential runs. Exactly one field is non-nil.
type env struct {
	ctx  *omp.Context
	work *int64
}

func (e env) addWork(n int64) {
	if e.ctx != nil {
		e.ctx.AddWork(n)
	} else {
		*e.work += n
	}
}

func (e env) addWrites(private, shared int64) {
	if e.ctx != nil {
		e.ctx.AddWrites(private, shared)
	}
}

// strassen computes c = a·b by Strassen recursion. In parallel mode
// (e.ctx != nil) the seven products are created as tasks subject to
// the version's depth cut-off; in sequential mode they recurse
// directly.
func strassen(e env, c, a, b view, n, depth, cutoff int, variant core.Variant) {
	if n <= baseSize {
		zero(c, n)
		matmulAdd(c, a, b, n)
		nn := int64(n) * int64(n)
		e.addWork(nn * int64(n))
		e.addWrites(nn, nn)
		return
	}
	h := n / 2
	a11, a12, a21, a22 := a.sub(0, 0), a.sub(0, h), a.sub(h, 0), a.sub(h, h)
	b11, b12, b21, b22 := b.sub(0, 0), b.sub(0, h), b.sub(h, 0), b.sub(h, h)
	c11, c12, c21, c22 := c.sub(0, 0), c.sub(0, h), c.sub(h, 0), c.sub(h, h)

	m := make([]view, 7)
	for i := range m {
		m[i] = newView(h)
	}
	// The seven Strassen products; each computes its operand
	// temporaries privately so the tasks are independent.
	products := [7]func(e env){
		func(e env) { // M1 = (A11 + A22)(B11 + B22)
			t1, t2 := newView(h), newView(h)
			add(t1, a11, a22, h)
			add(t2, b11, b22, h)
			e.addWork(2 * int64(h) * int64(h))
			strassen(e, m[0], t1, t2, h, depth+1, cutoff, variant)
		},
		func(e env) { // M2 = (A21 + A22) B11
			t1 := newView(h)
			add(t1, a21, a22, h)
			e.addWork(int64(h) * int64(h))
			strassen(e, m[1], t1, b11, h, depth+1, cutoff, variant)
		},
		func(e env) { // M3 = A11 (B12 − B22)
			t1 := newView(h)
			sub(t1, b12, b22, h)
			e.addWork(int64(h) * int64(h))
			strassen(e, m[2], a11, t1, h, depth+1, cutoff, variant)
		},
		func(e env) { // M4 = A22 (B21 − B11)
			t1 := newView(h)
			sub(t1, b21, b11, h)
			e.addWork(int64(h) * int64(h))
			strassen(e, m[3], a22, t1, h, depth+1, cutoff, variant)
		},
		func(e env) { // M5 = (A11 + A12) B22
			t1 := newView(h)
			add(t1, a11, a12, h)
			e.addWork(int64(h) * int64(h))
			strassen(e, m[4], t1, b22, h, depth+1, cutoff, variant)
		},
		func(e env) { // M6 = (A21 − A11)(B11 + B12)
			t1, t2 := newView(h), newView(h)
			sub(t1, a21, a11, h)
			add(t2, b11, b12, h)
			e.addWork(2 * int64(h) * int64(h))
			strassen(e, m[5], t1, t2, h, depth+1, cutoff, variant)
		},
		func(e env) { // M7 = (A12 − A22)(B21 + B22)
			t1, t2 := newView(h), newView(h)
			sub(t1, a12, a22, h)
			add(t2, b21, b22, h)
			e.addWork(2 * int64(h) * int64(h))
			strassen(e, m[6], t1, t2, h, depth+1, cutoff, variant)
		},
	}

	if e.ctx == nil {
		for _, p := range products {
			p(e)
		}
	} else if variant.Futures {
		// Futures version: each product is a typed future; the combine
		// phase blocks on exactly the values it consumes via Wait
		// (a task scheduling point — the waiter executes other ready
		// tasks, including other products, while blocked) instead of a
		// joint taskwait.
		futs := make([]*omp.Future[view], len(products))
		for i, p := range products {
			i, p := i, p
			opts := []omp.TaskOpt{omp.Captured(capturedBytes)}
			if variant.Untied {
				opts = append(opts, omp.Untied())
			}
			futs[i] = omp.Spawn(e.ctx, func(c2 *omp.Context) view {
				p(env{ctx: c2})
				return m[i]
			}, opts...)
		}
		for i, f := range futs {
			m[i] = f.Wait(e.ctx)
		}
	} else {
		spawnAsTask := true
		if variant.Cutoff == "manual" && depth >= cutoff {
			spawnAsTask = false
		}
		for _, p := range products {
			p := p
			if !spawnAsTask {
				p(e) // manual cut-off: direct call, no task
				continue
			}
			opts := []omp.TaskOpt{omp.Captured(capturedBytes)}
			if variant.Untied {
				opts = append(opts, omp.Untied())
			}
			if variant.Cutoff == "if" {
				opts = append(opts, omp.If(depth < cutoff))
			}
			e.ctx.Task(func(c2 *omp.Context) { p(env{ctx: c2}) }, opts...)
		}
		e.ctx.Taskwait()
	}

	// Combine: C11 = M1+M4−M5+M7, C12 = M3+M5, C21 = M2+M4,
	// C22 = M1−M2+M3+M6.
	hh := int64(h) * int64(h)
	add(c11, m[0], m[3], h)
	sub(c11, c11, m[4], h)
	add(c11, c11, m[6], h)
	add(c12, m[2], m[4], h)
	add(c21, m[1], m[3], h)
	sub(c22, m[0], m[1], h)
	add(c22, c22, m[2], h)
	add(c22, c22, m[5], h)
	e.addWork(8 * hh)
	e.addWrites(0, 4*hh)
}

// Seq computes the Strassen product of two n×n matrices sequentially,
// returning the result and the work performed.
func Seq(a, b []float64, n int) ([]float64, int64) {
	c := make([]float64, n*n)
	var work int64
	strassen(env{work: &work}, view{c, n}, view{a, n}, view{b, n}, n, 0, 0, core.Variant{})
	return c, work
}

// Naive computes c = a·b by the standard triple loop (test oracle).
func Naive(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	matmulAdd(view{c, n}, view{a, n}, view{b, n}, n)
	return c
}

func digest(a []float64) string {
	d := core.NewDigest()
	d.Float64s(a)
	return d.String()
}

func seqRun(class core.Class) (*core.SeqResult, error) {
	n := classN[class]
	a := inputs.Matrix(n, inputSeedA)
	b := inputs.Matrix(n, inputSeedB)
	start := time.Now()
	c, work := Seq(a, b, n)
	elapsed := time.Since(start)
	return &core.SeqResult{
		Digest:   digest(c),
		Work:     work,
		Elapsed:  elapsed,
		MemBytes: 3 * int64(n) * int64(n) * 8,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	n := classN[cfg.Class]
	cutoff := cfg.CutoffDepth
	if cutoff <= 0 {
		cutoff = DefaultCutoffDepth
	}
	a := inputs.Matrix(n, inputSeedA)
	b := inputs.Matrix(n, inputSeedB)
	c := make([]float64, n*n)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(ctx *omp.Context) {
		ctx.Single(func(ctx *omp.Context) {
			strassen(env{ctx: ctx}, view{c, n}, view{a, n}, view{b, n}, n, 0, cutoff, variant)
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	return &core.RunResult{Digest: digest(c), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "strassen",
		Origin:         "Cilk",
		Domain:         "Dense linear algebra",
		Structure:      "At each node",
		TaskDirectives: 8,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Versions:       core.FutureVersions(core.CutoffVersions()),
		BestVersion:    "none-tied",
		Profile:        core.Profile{MemFraction: 0.55, BandwidthCap: 8},
		Seq:            seqRun,
		Run:            parRun,
	})
}
