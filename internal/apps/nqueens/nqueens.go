// Package nqueens implements the BOTS NQueens benchmark: counting
// all placements of n queens on an n×n board such that no queen
// attacks another, by backtracking search with pruning. A task is
// created for each step of the solution, and the parent's partial
// board state is copied into each child task (the paper's captured-
// environment cost). To keep the computational load deterministic the
// kernel counts all solutions rather than stopping at the first, and
// per-thread solution counters (threadprivate) are reduced under a
// critical section at the end of the region — both exactly as §III-B
// describes.
package nqueens

import (
	"fmt"
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

// ok reports whether a queen may be placed in column col of row row,
// given the columns of the queens in rows [0, row).
func ok(board []int8, row int, col int8) bool {
	for i := 0; i < row; i++ {
		d := board[i] - col
		if d == 0 || d == int8(row-i) || d == int8(i-row) {
			return false
		}
	}
	return true
}

// seqCount counts solutions extending the first row rows of board,
// accumulating visited-node work in *work.
func seqCount(board []int8, row int, work *int64) int64 {
	n := len(board)
	*work += int64(row) + 1
	if row == n {
		return 1
	}
	var total int64
	for col := int8(0); col < int8(n); col++ {
		if ok(board, row, col) {
			board[row] = col
			total += seqCount(board, row+1, work)
		}
	}
	return total
}

// Seq counts all n-queens solutions sequentially, returning the count
// and the work performed (in visited-node units).
func Seq(n int) (solutions, work int64) {
	board := make([]int8, n)
	solutions = seqCount(board, 0, &work)
	return solutions, work
}

// maxN bounds the board size (knownSolutions stops at 15).
const maxN = 16

// board holds the column of the queen in each placed row. It is a
// fixed-size array so that a task body captures its copy by value:
// the board prefix a child receives — the paper's captured
// environment — travels inside the body closure, and a task costs
// exactly one allocation in this package.
type board [maxN]int8

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
}

// par explores one node of the search tree. Each viable placement in
// the next row becomes a child task with a private copy of the board
// prefix. Solutions are accumulated into the executing thread's slot
// of counts.
func (r *run) par(c *omp.Context, b board, row int) {
	n := r.n
	c.AddWork(int64(row) + 1)
	c.AddWrites(int64(row), 0) // the board copy is written into task-private memory
	if row == n {
		*r.counts.Get(c)++
		return
	}
	for col := int8(0); col < int8(n); col++ {
		if !ok(b[:], row, col) {
			continue
		}
		child := b.with(row, col) // never reassigned or addressed: captured by value
		opts := r.opts
		if row >= r.cutoff {
			switch r.variant.Cutoff {
			case "manual":
				// Manual cut-off: continue on this thread without any
				// task, searching the whole subtree in one buffer.
				buf, w := child, int64(0)
				*r.counts.Get(c) += seqCount(buf[:n], row+1, &w)
				c.AddWork(w)
				continue
			case "if":
				opts = r.cutOpts
			}
		}
		c.Task(func(c *omp.Context) { r.par(c, child, row+1) }, opts...)
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
	var total int64
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.SingleNowait(func(c *omp.Context) {
			c.Task(func(c *omp.Context) { r.par(c, board{}, 0) }, r.opts...)
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
