package main

import (
	"fmt"
	"io"
	"time"

	"bots/internal/obs"
	"bots/internal/omp"
)

// observed is region.observed: task-per-node fib and n-queens written
// here on the public omp API, because core.RunConfig cannot attach a
// flight recorder. The end-to-end run has the recorder and a registry
// on; the identical kernels without them run only in the probes.
type observed struct {
	fibN, queensN  int
	fibWant, qWant int64         // sequential results from set-up
	seqNS          time.Duration // sequential wall of both kernels
	fr             *obs.FlightRecorder
	reg            *obs.Registry
	last           omp.Stats // what the registry's counters read

	// Accumulated over timed passes, for the probes.
	parNS       time.Duration
	stats       omp.Stats
	timedPasses int
}

func seqFib(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return seqFib(n-1) + seqFib(n-2)
}

func parFib(c *omp.Context, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	c.Task(func(c *omp.Context) { parFib(c, n-1, &a) })
	c.Task(func(c *omp.Context) { parFib(c, n-2, &b) })
	c.Taskwait()
	*out = a + b
}

func queenOK(board []int8, row, col int) bool {
	for r := 0; r < row; r++ {
		if d := int(board[r]) - col; d == 0 || d == row-r || d == r-row {
			return false
		}
	}
	return true
}

func seqQueens(board []int8, row int) int64 {
	n := len(board)
	if row == n {
		return 1
	}
	var count int64
	for col := 0; col < n; col++ {
		if queenOK(board, row, col) {
			board[row] = int8(col)
			count += seqQueens(board, row+1)
		}
	}
	return count
}

// parQueens spawns one task per admissible placement, each with its
// own copy of the board (the captured-environment cost of the BOTS
// kernel).
func parQueens(c *omp.Context, board []int8, row int, out *int64) {
	n := cap(board)
	if row == n {
		*out = 1
		return
	}
	counts := make([]int64, n)
	for col := 0; col < n; col++ {
		if !queenOK(board, row, col) {
			continue
		}
		child := make([]int8, row+1, n)
		copy(child, board[:row])
		child[row] = int8(col)
		slot := &counts[col]
		c.Task(func(c *omp.Context) { parQueens(c, child, row+1, slot) }, omp.Captured(row+1))
	}
	c.Taskwait()
	for _, v := range counts {
		*out += v
	}
}

func (o *observed) setup(e *env) error {
	o.fibN, o.queensN = 27, 11
	if e.quick {
		o.fibN, o.queensN = 16, 6
	}
	t0 := time.Now()
	o.fibWant = seqFib(o.fibN)
	o.qWant = seqQueens(make([]int8, o.queensN), 0)
	o.seqNS = time.Since(t0)
	o.fr = obs.NewFlightRecorder(Threads, 4096)
	o.reg = obs.NewRegistry()
	omp.RegisterStats(o.reg, "bots_bench", func() omp.Stats { return o.last })
	return nil
}

// pass runs both kernels once, in seed order, and returns the summed
// region wall, task count and stats; opts select observed or bare.
func (o *observed) pass(e *env, parent *span, opts ...omp.TeamOpt) (wall time.Duration, tasks int64, sum omp.Stats) {
	region := func(name string, want int64, root func(*omp.Context, *int64)) {
		var got int64
		sp := e.tr.start(parent, "omp", "Parallel "+name)
		t0 := time.Now()
		st := omp.Parallel(Threads, func(c *omp.Context) {
			c.Single(func(c *omp.Context) { root(c, &got) })
		}, opts...)
		wall += time.Since(t0)
		sp.end()
		tasks += st.TotalTasks()
		addStats(&sum, st)
		o.last = *st
		var err error
		if got != want {
			err = fmt.Errorf("owned %s: got %d, want %d", name, got, want)
		}
		e.check(err)
	}
	for _, k := range e.rng.Perm(2) {
		if k == 0 {
			region(fmt.Sprintf("fib(%d)", o.fibN), o.fibWant, func(c *omp.Context, out *int64) { parFib(c, o.fibN, out) })
		} else {
			region(fmt.Sprintf("nqueens(%d)", o.queensN), o.qWant, func(c *omp.Context, out *int64) {
				parQueens(c, make([]int8, 0, o.queensN), 0, out)
			})
		}
	}
	return wall, tasks, sum
}

func (o *observed) measure(e *env) error {
	return passes(e, 2, func(timed bool) error {
		ps := e.tr.start(e.root, "bench", "pass")
		defer ps.end()
		w, t, st := o.pass(e, ps, omp.WithFlightRecorder(o.fr))
		// What leaving obs on is for: read it back, outside the timed
		// quantity.
		sp := e.tr.start(ps, "obs", "Snapshot + WritePrometheus")
		events := o.fr.Snapshot()
		err := o.reg.WritePrometheus(io.Discard)
		sp.end()
		if err == nil && len(events) == 0 {
			err = fmt.Errorf("flight recorder attached but empty")
		}
		e.check(err)
		if timed {
			e.timeMS = append(e.timeMS, ms(w))
			e.rates = append(e.rates, float64(t)/w.Seconds())
			o.parNS += w
			addStats(&o.stats, &st)
			o.timedPasses++
		}
		return nil
	})
}

// probes alternates bare and observed passes so host drift cancels
// and reports the ratio of their median walls.
func (o *observed) probes(e *env) error {
	regionLayers(e, o.seqNS*time.Duration(o.timedPasses), o.parNS, o.stats, o.timedPasses)
	var bare, on []float64
	start := time.Now()
	for len(bare) < 2 || time.Since(start) < e.window {
		w, _, _ := o.pass(e, e.root)
		bare = append(bare, ms(w))
		w, _, _ = o.pass(e, e.root, omp.WithFlightRecorder(o.fr))
		on = append(on, ms(w))
	}
	e.layer("obs.flightrec_ratio", median(on)/median(bare))
	return nil
}

func (o *observed) close() error { return nil }
