// Package sparselu implements the BOTS SparseLU benchmark: an LU
// factorization of a sparse blocked matrix. The first-level matrix
// holds pointers to bs×bs submatrices, many of which are not
// allocated; the sparseness creates heavy load imbalance, which task
// parallelism absorbs better than a static loop schedule. In each
// phase of step kk a task is created for every non-null block:
// forward substitution along row kk (fwd), block division along
// column kk (bdiv), and trailing-submatrix update (bmod), with
// fill-in blocks allocated as updates hit null blocks.
//
// Three generator schemes are provided. The "single" and "for"
// versions are the paper's: one thread creates all tasks inside a
// single construct with taskwaits between phases, or a for
// worksharing construct distributes creation with barriers between
// phases. The "dep" versions are the OpenMP 4.0-style successor the
// paper's future work points toward: every task carries In/Out/InOut
// dependence clauses on the blocks it touches, the runtime derives
// the inter-task ordering from them, and the per-phase barriers
// disappear entirely — tasks from step kk+1 start as soon as their
// actual predecessors finish, while unrelated bmod updates from step
// kk are still in flight.
package sparselu

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const inputSeed = 0x5BA25E10

// dims holds the block-matrix geometry per class: nb×nb blocks of
// bs×bs values.
type dims struct{ nb, bs int }

var classDims = map[core.Class]dims{
	core.Test:   {8, 16},
	core.Small:  {16, 32},
	core.Medium: {32, 48},
	core.Large:  {48, 64},
}

const capturedBytes = 32 // block pointers + indices

// Matrix is the first-level sparse block matrix.
type Matrix struct {
	NB, BS int
	Blocks [][]float64 // nil = unallocated block
}

// NewMatrix builds the deterministic input matrix for the given
// geometry.
func NewMatrix(nb, bs int) *Matrix {
	pattern := inputs.SparsePattern(nb, inputSeed)
	m := &Matrix{NB: nb, BS: bs, Blocks: make([][]float64, nb*nb)}
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			if pattern[i*nb+j] {
				m.Blocks[i*nb+j] = inputs.Block(bs, i, j, nb, inputSeed)
			}
		}
	}
	return m
}

// Clone deep-copies the matrix (so sequential and parallel runs
// factorize identical inputs).
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{NB: m.NB, BS: m.BS, Blocks: make([][]float64, len(m.Blocks))}
	for i, b := range m.Blocks {
		if b != nil {
			c.Blocks[i] = append([]float64(nil), b...)
		}
	}
	return c
}

func (m *Matrix) at(i, j int) []float64 { return m.Blocks[i*m.NB+j] }

// allocIfNeeded returns the block at (i, j), allocating a zero block
// for fill-in.
func (m *Matrix) allocIfNeeded(i, j int) []float64 {
	if m.Blocks[i*m.NB+j] == nil {
		m.Blocks[i*m.NB+j] = make([]float64, m.BS*m.BS)
	}
	return m.Blocks[i*m.NB+j]
}

// lu0 factorizes the diagonal block in place (Doolittle, no
// pivoting; the input generator makes diagonals dominant). Returns
// work units.
func lu0(d []float64, bs int) int64 {
	for k := 0; k < bs; k++ {
		dk := d[k*bs+k]
		for i := k + 1; i < bs; i++ {
			d[i*bs+k] /= dk
			lik := d[i*bs+k]
			for j := k + 1; j < bs; j++ {
				d[i*bs+j] -= lik * d[k*bs+j]
			}
		}
	}
	return int64(bs) * int64(bs) * int64(bs) / 3
}

// fwd solves L·X = B for X in place (B := L⁻¹B), with L the
// unit-lower triangle of diag.
func fwd(diag, b []float64, bs int) int64 {
	for k := 0; k < bs; k++ {
		for i := k + 1; i < bs; i++ {
			lik := diag[i*bs+k]
			if lik == 0 {
				continue
			}
			for j := 0; j < bs; j++ {
				b[i*bs+j] -= lik * b[k*bs+j]
			}
		}
	}
	return int64(bs) * int64(bs) * int64(bs) / 2
}

// bdiv solves X·U = B for X in place (B := B·U⁻¹), with U the upper
// triangle of diag.
func bdiv(diag, b []float64, bs int) int64 {
	for i := 0; i < bs; i++ {
		for k := 0; k < bs; k++ {
			b[i*bs+k] /= diag[k*bs+k]
			bik := b[i*bs+k]
			for j := k + 1; j < bs; j++ {
				b[i*bs+j] -= bik * diag[k*bs+j]
			}
		}
	}
	return int64(bs) * int64(bs) * int64(bs) / 2
}

// bmod computes inner -= row·col (the trailing update).
func bmod(row, col, inner []float64, bs int) int64 {
	for i := 0; i < bs; i++ {
		for k := 0; k < bs; k++ {
			rik := row[i*bs+k]
			if rik == 0 {
				continue
			}
			for j := 0; j < bs; j++ {
				inner[i*bs+j] -= rik * col[k*bs+j]
			}
		}
	}
	return int64(bs) * int64(bs) * int64(bs)
}

// Seq factorizes m in place sequentially, returning work units.
func Seq(m *Matrix) int64 {
	nb, bs := m.NB, m.BS
	var work int64
	for kk := 0; kk < nb; kk++ {
		work += lu0(m.at(kk, kk), bs)
		for jj := kk + 1; jj < nb; jj++ {
			if m.at(kk, jj) != nil {
				work += fwd(m.at(kk, kk), m.at(kk, jj), bs)
			}
		}
		for ii := kk + 1; ii < nb; ii++ {
			if m.at(ii, kk) != nil {
				work += bdiv(m.at(kk, kk), m.at(ii, kk), bs)
			}
		}
		for ii := kk + 1; ii < nb; ii++ {
			if m.at(ii, kk) == nil {
				continue
			}
			for jj := kk + 1; jj < nb; jj++ {
				if m.at(kk, jj) == nil {
					continue
				}
				work += bmod(m.at(ii, kk), m.at(kk, jj), m.allocIfNeeded(ii, jj), bs)
			}
		}
	}
	return work
}

// parSingle is the single-generator parallel factorization: one
// thread creates every task, with taskwaits separating the phases.
func parSingle(c *omp.Context, m *Matrix, untied bool) {
	nb, bs := m.NB, m.BS
	clauses := core.TaskOpts(capturedBytes, untied, omp.TaskOpt{})
	opts := clauses[:]
	bsq := int64(bs) * int64(bs)
	for kk := 0; kk < nb; kk++ {
		c.AddWork(lu0(m.at(kk, kk), bs))
		c.AddWrites(0, bsq)
		for jj := kk + 1; jj < nb; jj++ {
			if b := m.at(kk, jj); b != nil {
				diag := m.at(kk, kk)
				c.Task(func(c *omp.Context) {
					c.AddWork(fwd(diag, b, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, opts...)
			}
		}
		for ii := kk + 1; ii < nb; ii++ {
			if b := m.at(ii, kk); b != nil {
				diag := m.at(kk, kk)
				c.Task(func(c *omp.Context) {
					c.AddWork(bdiv(diag, b, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, opts...)
			}
		}
		c.Taskwait()
		for ii := kk + 1; ii < nb; ii++ {
			row := m.at(ii, kk)
			if row == nil {
				continue
			}
			for jj := kk + 1; jj < nb; jj++ {
				col := m.at(kk, jj)
				if col == nil {
					continue
				}
				inner := m.allocIfNeeded(ii, jj)
				c.Task(func(c *omp.Context) {
					c.AddWork(bmod(row, col, inner, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, opts...)
			}
		}
		c.Taskwait()
	}
}

// parFor is the multiple-generator factorization: for worksharing
// distributes task creation across the team, with barriers (which
// drain tasks) separating the phases.
func parFor(c *omp.Context, m *Matrix, untied bool) {
	nb, bs := m.NB, m.BS
	clauses := core.TaskOpts(capturedBytes, untied, omp.TaskOpt{})
	opts := clauses[:]
	bsq := int64(bs) * int64(bs)
	for kk := 0; kk < nb; kk++ {
		kk := kk
		c.Single(func(c *omp.Context) {
			c.AddWork(lu0(m.at(kk, kk), bs))
			c.AddWrites(0, bsq)
			// Fill-in must be allocated before the parallel phases so
			// the for-loops below see a stable structure.
			for ii := kk + 1; ii < nb; ii++ {
				if m.at(ii, kk) == nil {
					continue
				}
				for jj := kk + 1; jj < nb; jj++ {
					if m.at(kk, jj) != nil {
						m.allocIfNeeded(ii, jj)
					}
				}
			}
		})
		c.For(kk+1, nb, func(c *omp.Context, jj int) {
			if b := m.at(kk, jj); b != nil {
				diag := m.at(kk, kk)
				c.Task(func(c *omp.Context) {
					c.AddWork(fwd(diag, b, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, opts...)
			}
			if b := m.at(jj, kk); b != nil {
				diag := m.at(kk, kk)
				c.Task(func(c *omp.Context) {
					c.AddWork(bdiv(diag, b, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, opts...)
			}
		}, omp.WithSchedule(omp.Dynamic, 1))
		c.For(kk+1, nb, func(c *omp.Context, ii int) {
			row := m.at(ii, kk)
			if row == nil {
				return
			}
			for jj := kk + 1; jj < nb; jj++ {
				col := m.at(kk, jj)
				if col == nil {
					continue
				}
				inner := m.at(ii, jj)
				c.Task(func(c *omp.Context) {
					c.AddWork(bmod(row, col, inner, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, opts...)
			}
		}, omp.WithSchedule(omp.Dynamic, 1))
	}
}

// symbolicFill precomputes the fill-in pattern: it allocates, in
// factorization order, every block that Seq would allocate, without
// touching values. The dep generator needs all block storage to exist
// before task creation so dependence clauses can name stable
// addresses across the whole factorization.
func symbolicFill(m *Matrix) {
	nb := m.NB
	for kk := 0; kk < nb; kk++ {
		for ii := kk + 1; ii < nb; ii++ {
			if m.at(ii, kk) == nil {
				continue
			}
			for jj := kk + 1; jj < nb; jj++ {
				if m.at(kk, jj) != nil {
					m.allocIfNeeded(ii, jj)
				}
			}
		}
	}
}

// parDep is the dependence-driven factorization: one generator
// creates every task of every step up front, with In/Out/InOut
// clauses keyed on the block storage standing in for the phase
// barriers of the other schemes. The diagonal-factor and
// panel-solve tasks sit on the critical path, so they carry a
// higher priority than the O(nb²) trailing updates.
func parDep(c *omp.Context, m *Matrix, untied bool) {
	nb, bs := m.NB, m.BS
	env, prio := omp.Captured(capturedBytes), omp.Priority(1)
	var tied omp.TaskOpt
	if untied {
		tied = omp.Untied()
	}
	bsq := int64(bs) * int64(bs)
	symbolicFill(m)
	for kk := 0; kk < nb; kk++ {
		diag := m.at(kk, kk)
		c.Task(func(c *omp.Context) {
			c.AddWork(lu0(diag, bs))
			c.AddWrites(0, bsq)
		}, omp.InOut(diag), env, tied, prio)
		for jj := kk + 1; jj < nb; jj++ {
			if b := m.at(kk, jj); b != nil {
				b := b
				c.Task(func(c *omp.Context) {
					c.AddWork(fwd(diag, b, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, omp.In(diag), omp.InOut(b), env, tied, prio)
			}
		}
		for ii := kk + 1; ii < nb; ii++ {
			if b := m.at(ii, kk); b != nil {
				b := b
				c.Task(func(c *omp.Context) {
					c.AddWork(bdiv(diag, b, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, omp.In(diag), omp.InOut(b), env, tied, prio)
			}
		}
		for ii := kk + 1; ii < nb; ii++ {
			row := m.at(ii, kk)
			if row == nil {
				continue
			}
			for jj := kk + 1; jj < nb; jj++ {
				col := m.at(kk, jj)
				if col == nil {
					continue
				}
				inner := m.at(ii, jj)
				c.Task(func(c *omp.Context) {
					c.AddWork(bmod(row, col, inner, bs))
					c.AddWrites(bsq/2, bsq/2)
				}, omp.In(row, col), omp.InOut(inner), env, tied)
			}
		}
	}
}

func digest(m *Matrix) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, b := range m.Blocks {
		if b == nil {
			h.Write([]byte{0xFF})
			continue
		}
		for _, v := range b {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func seqRun(class core.Class) (*core.SeqResult, error) {
	d := classDims[class]
	m := NewMatrix(d.nb, d.bs)
	start := time.Now()
	work := Seq(m)
	elapsed := time.Since(start)
	var allocated int64
	for _, b := range m.Blocks {
		if b != nil {
			allocated++
		}
	}
	return &core.SeqResult{
		Digest:   digest(m),
		Work:     work,
		Elapsed:  elapsed,
		MemBytes: allocated * int64(d.bs) * int64(d.bs) * 8,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	d := classDims[cfg.Class]
	m := NewMatrix(d.nb, d.bs)
	start := time.Now()
	var st *omp.Stats
	switch variant.Generator {
	case "for":
		st = omp.Parallel(cfg.Threads, func(c *omp.Context) {
			parFor(c, m, variant.Untied)
		}, cfg.TeamOpts()...)
	case "dep":
		st = omp.Parallel(cfg.Threads, func(c *omp.Context) {
			c.SingleNowait(func(c *omp.Context) { parDep(c, m, variant.Untied) })
			// No phase synchronization at all: the region-end barrier
			// drains the dependence graph.
		}, cfg.TeamOpts()...)
	default: // "single"
		st = omp.Parallel(cfg.Threads, func(c *omp.Context) {
			c.Single(func(c *omp.Context) { parSingle(c, m, variant.Untied) })
		}, cfg.TeamOpts()...)
	}
	elapsed := time.Since(start)
	return &core.RunResult{Digest: digest(m), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "sparselu",
		Origin:         "-",
		Domain:         "Sparse linear algebra",
		Structure:      "Iterative",
		TaskDirectives: 4,
		TasksInside:    "single/for",
		NestedTasks:    false,
		AppCutoff:      "none",
		Versions:       core.GeneratorVersions(),
		BestVersion:    "for-tied",
		Profile:        core.Profile{MemFraction: 0.15, BandwidthCap: 16},
		Seq:            seqRun,
		Run:            parRun,
	})
}
