// Package nqueens implements the BOTS NQueens benchmark: counting
// all placements of n queens on an n×n board such that no queen
// attacks another, by backtracking search with pruning. A task is
// created for each step of the solution, and the parent's partial
// board state is copied into each child task (the paper's captured-
// environment cost). To keep the computational load deterministic the
// kernel counts all solutions rather than stopping at the first, and
// per-thread solution counters (threadprivate) are reduced under a
// critical section at the end of the region — both exactly as §III-B
// describes. The search carries its attack state down the tree: three
// column masks (queens' columns, and the columns their left and right
// diagonals reach in the next row), from which a child gets its own in
// O(1) by placing one queen and shifting the diagonals a row on. A
// node's free columns are the clear bits of the three, visited in
// ascending order: the children, counts and work of a per-column test.
// Each task still receives its own copy of the board although the
// search never reads it, because that copy is the captured
// environment whose cost the paper measures.
package nqueens

import (
	"fmt"
	"math/bits"
	"time"

	"bots/internal/core"
	"bots/internal/omp"
)

// knownSolutions[n] is the number of n-queens solutions (OEIS A000170).
var knownSolutions = map[int]int64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352,
	10: 724, 11: 2680, 12: 14200, 13: 73712, 14: 365596, 15: 2279184,
}

var classN = map[core.Class]int{
	core.Test:   8,
	core.Small:  10,
	core.Medium: 12,
	core.Large:  13,
}

// DefaultCutoffDepth is the default depth for if/manual cut-off
// versions (rows beyond this are explored without creating tasks).
const DefaultCutoffDepth = 3

// attacks is the attack state of one row of the search: bit c of cols
// is set when a queen stands in column c, and bit c of left (right)
// when a queen's diagonal toward higher (lower) columns reaches column
// c in this row. Diagonals that leave the board shift out of the mask.
type attacks struct{ cols, left, right uint16 }

// free returns the columns of an n-column row that no queen attacks,
// as a set whose bit c stands for column c.
func (a attacks) free(n int) uint {
	return ^uint(a.cols|a.left|a.right) & (1<<n - 1)
}

// place returns the attack state of the next row after a queen is
// placed on column bit of this one.
func (a attacks) place(bit uint16) attacks {
	return attacks{a.cols | bit, (a.left | bit) << 1, (a.right | bit) >> 1}
}

// seqCount counts solutions below a node of row row of an n-row board
// with attack state a, accumulating visited-node work in *work.
func seqCount(a attacks, row, n int, work *int64) int64 {
	*work += int64(row) + 1
	if row == n {
		return 1
	}
	var total int64
	for f := a.free(n); f != 0; f &= f - 1 {
		total += seqCount(a.place(uint16(f&-f)), row+1, n, work)
	}
	return total
}

// Seq counts all n-queens solutions sequentially, returning the count
// and the work performed (in visited-node units).
func Seq(n int) (solutions, work int64) {
	solutions = seqCount(attacks{}, 0, n, &work)
	return solutions, work
}

// maxN bounds the board size (knownSolutions stops at 15), and with it
// the width of the attack masks.
const maxN = 16

// board holds the column of the queen in each placed row. It is a
// fixed-size array so that a task receives its copy by value: the
// board prefix a child receives — the paper's captured environment —
// is copied into the child's task cell, and a task costs no
// allocation in this package.
type board [maxN]int8

// node is one task's firstprivate environment: the board prefix, its
// attack state and the row to place next, 24 bytes in all.
type node struct {
	b   board
	a   attacks
	row uint8
}

// with returns b with a queen placed in column col of row row.
func (b board) with(row int, col int8) board {
	b[row] = col
	return b
}

// run is the state one parallel search shares across its tasks.
type run struct {
	n, cutoff int
	variant   core.Variant
	counts    *omp.ThreadPrivate[int64]
	// opts is the clause list of every deferred spawn and cutOpts that
	// of an if version's spawn at or past the cut-off, built once per
	// run so no spawn rebuilds and copies them.
	opts, cutOpts []omp.TaskOpt
	tasks         *omp.TaskFunc[node]
}

// par explores one node of the search tree. Each viable placement in
// the next row becomes a child task with a private copy of the board
// prefix and the child's attack state. Solutions are accumulated into
// the executing thread's slot of counts.
func (r *run) par(c *omp.Context, nd *node) {
	n, b, a, row := r.n, &nd.b, nd.a, int(nd.row)
	c.AddWork(int64(row) + 1)
	c.AddWrites(int64(row), 0) // the board copy is written into task-private memory
	if row == n {
		*r.counts.Get(c)++
		return
	}
	for f := a.free(n); f != 0; f &= f - 1 {
		col := bits.TrailingZeros(f)
		child := a.place(1 << col)
		opts := r.opts
		if row >= r.cutoff {
			switch r.variant.Cutoff {
			case "manual":
				// Manual cut-off: continue on this thread without any
				// task, searching the whole subtree from its masks.
				var w int64
				*r.counts.Get(c) += seqCount(child, row+1, n, &w)
				c.AddWork(w)
				continue
			case "if":
				opts = r.cutOpts
			}
		}
		r.tasks.Task(c, node{b.with(row, int8(col)), child, uint8(row + 1)}, opts...)
	}
	c.Taskwait()
}

func digest(n int, count int64) string { return fmt.Sprintf("nqueens(%d)=%d", n, count) }

func seqRun(class core.Class) (*core.SeqResult, error) {
	n := classN[class]
	start := time.Now()
	count, work := Seq(n)
	elapsed := time.Since(start)
	if want, known := knownSolutions[n]; known && count != want {
		return nil, fmt.Errorf("nqueens: sequential count %d != known %d for n=%d", count, want, n)
	}
	return &core.SeqResult{
		Digest:   digest(n, count),
		Work:     work,
		Elapsed:  elapsed,
		MemBytes: int64(n) * int64(n) * 2,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	n := classN[cfg.Class]
	if n > maxN {
		return nil, fmt.Errorf("nqueens: n=%d exceeds the %d-row board type", n, maxN)
	}
	cutoff := cfg.CutoffDepth
	if cutoff <= 0 {
		cutoff = DefaultCutoffDepth
	}
	counts := omp.NewThreadPrivate[int64](cfg.Threads)
	opts := core.TaskOpts(n+16, variant.Untied, omp.TaskOpt{})
	cutOpts := core.TaskOpts(n+16, variant.Untied, omp.If(false))
	r := &run{n: n, cutoff: cutoff, variant: variant, counts: counts, opts: opts[:], cutOpts: cutOpts[:]}
	r.tasks = omp.NewTaskFunc(cfg.Threads, r.par)
	var total int64
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.SingleNowait(func(c *omp.Context) {
			r.tasks.Task(c, node{}, r.opts...)
		})
		c.Barrier()
		// Each thread folds its threadprivate count into the global
		// total under a critical, as in the paper's reduction scheme.
		mine := counts.Get(c)
		c.Critical("nqueens-reduce", func() { total += *mine })
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	if want, known := knownSolutions[n]; known && total != want {
		return nil, fmt.Errorf("nqueens: parallel count %d != known %d for n=%d (version %s)",
			total, want, n, cfg.Version)
	}
	return &core.RunResult{Digest: digest(n, total), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "nqueens",
		Origin:         "Cilk",
		Domain:         "Search",
		Structure:      "At each node",
		TaskDirectives: 1,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Versions:       core.CutoffVersions(),
		BestVersion:    "manual-untied",
		Profile:        core.Profile{MemFraction: 0.0, BandwidthCap: 32},
		Seq:            seqRun,
		Run:            parRun,
	})
}
