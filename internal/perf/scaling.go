package perf

import (
	"fmt"
	"runtime"
	"time"

	"bots/internal/core"
	"bots/internal/omp"
)

// Strong-scaling suite: the same problem at growing team sizes. This
// is the measurement the BOTS paper is actually about — how a task
// runtime's overheads bend the speedup curve as threads grow — and the
// one the repository benchmark (benchmark/) does not take: its
// workloads run at a fixed team size. Five benchmarks cover the design
// space: fib and nqueens (spawn-dominated microkernels), sort and
// strassen (real recursive workloads through the core registry), and
// sparselu's dep-tied version (dependence-driven execution, so the
// dependence-release and wake paths are on the measured path too).
//
// Per (bench, workers) point the suite emits, both informational:
//
//   - scaling/<bench>/speedup — T(1 worker) / T(n workers);
//   - scaling/<bench>/efficiency — speedup / min(n, NumCPU).
//     Dividing by *effective* parallelism (a team larger than the
//     host's core count cannot speed up past the core count) keeps
//     the metric meaningful on any host: on a big machine it is
//     classic parallel efficiency, on a small one it measures how
//     much the runtime's contention overhead (queue traffic, steal
//     sweeps, park/wake churn) taxes an oversubscribed team — an
//     ideal contention-free runtime holds it near 1.0 either way.
//
// Neither is gated: both are wall-clock ratios, comparable only
// between runs on equivalent hosts. Params pin the workload size, the
// worker count and the host's CPU count, so a reader comparing two
// reports matches points measured under the same effective-parallelism
// regime.
//
// Contention counters (steal attempts/fails, idle and taskwait parks,
// tasks stolen) ride in Extra on every point, so a scaling change
// comes with the queue-discipline evidence needed to read it.

// scalingWorkerCounts returns the team sizes of the strong-scaling
// suite: powers of two from 1 up to max(4, NumCPU), plus the full
// count itself when it is not a power of two (a 6- or 12-core host
// must measure its full-machine point — that is where whole-team
// contention shows). The floor of 4 keeps at least three points
// (1, 2, 4) on any host — on a small host the oversubscribed points
// measure contention overhead rather than speedup (see the
// efficiency definition above).
func scalingWorkerCounts() []int {
	max := runtime.NumCPU()
	if max < 4 {
		max = 4
	}
	counts := []int{}
	for n := 1; n <= max; n *= 2 {
		counts = append(counts, n)
	}
	if counts[len(counts)-1] != max {
		counts = append(counts, max)
	}
	return counts
}

// perfFib is the task-per-node fib kernel (the paper's canonical
// overhead stressor: ~zero work per task, so elapsed time is pure
// runtime cost).
func perfFib(c *omp.Context, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	c.Task(func(c *omp.Context) { perfFib(c, n-1, &a) })
	c.Task(func(c *omp.Context) { perfFib(c, n-2, &b) })
	c.Taskwait()
	*out = a + b
}

// perfQueens counts n-queens solutions with one task per row
// placement — the paper's other spawn-heavy kernel, with a copied
// board per task (captured-environment cost).
func perfQueens(c *omp.Context, board []int8, row int, count *int64) {
	n := cap(board)
	if row == n {
		*count += 1
		return
	}
	counts := make([]int64, n)
	for col := 0; col < n; col++ {
		col := col
		ok := true
		for r := 0; r < row; r++ {
			d := int(board[r]) - col
			if d == 0 || d == row-r || d == r-row {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		child := make([]int8, row+1, n)
		copy(child, board[:row])
		child[row] = int8(col)
		c.Task(func(c *omp.Context) { perfQueens(c, child, row+1, &counts[col]) }, omp.Captured(row+1))
	}
	c.Taskwait()
	for col := 0; col < n; col++ {
		*count += counts[col]
	}
}

// scalingBench is one strong-scaling subject: run executes the
// workload once on a team of the given size and reports elapsed time
// and runtime stats. params names the pinned workload size.
type scalingBench struct {
	name   string
	params string
	run    func(threads int) (time.Duration, *omp.Stats, error)
}

// scalingBenches assembles the five suite subjects at the mode's
// pinned sizes.
func scalingBenches(quick bool) []scalingBench {
	fibN, queensN, class := 25, 10, "small"
	if quick {
		fibN, queensN, class = 20, 8, "test"
	}
	benches := []scalingBench{
		{
			name:   "fib",
			params: fmt.Sprintf("n=%d", fibN),
			run: func(threads int) (time.Duration, *omp.Stats, error) {
				var res int64
				start := time.Now()
				st := omp.Parallel(threads, func(c *omp.Context) {
					c.Single(func(c *omp.Context) {
						c.Task(func(c *omp.Context) { perfFib(c, fibN, &res) })
					})
				})
				return time.Since(start), st, nil
			},
		},
		{
			name:   "nqueens",
			params: fmt.Sprintf("n=%d", queensN),
			run: func(threads int) (time.Duration, *omp.Stats, error) {
				var count int64
				start := time.Now()
				st := omp.Parallel(threads, func(c *omp.Context) {
					c.Single(func(c *omp.Context) {
						perfQueens(c, make([]int8, 0, queensN), 0, &count)
					})
				})
				return time.Since(start), st, nil
			},
		},
	}
	for _, m := range []struct{ bench, version string }{
		{"sort", ""},             // registry best version
		{"strassen", ""},         // registry best version
		{"sparselu", "dep-tied"}, // dependence-driven: the dep release path scales too
	} {
		m := m
		b, err := core.Get(m.bench)
		version := m.version
		if err == nil && version == "" {
			version = b.BestVersion
		}
		benches = append(benches, scalingBench{
			name:   m.bench,
			params: fmt.Sprintf("class=%s/version=%s", class, version),
			run: func(threads int) (time.Duration, *omp.Stats, error) {
				if err != nil {
					return 0, nil, err
				}
				cls, cerr := core.ParseClass(class)
				if cerr != nil {
					return 0, nil, cerr
				}
				res, rerr := b.Run(core.RunConfig{Class: cls, Version: version, Threads: threads})
				if rerr != nil {
					return 0, nil, fmt.Errorf("perf: scaling %s: %w", m.bench, rerr)
				}
				return res.Elapsed, res.Stats, nil
			},
		})
	}
	return benches
}

// scalingMetrics runs the strong-scaling suite (best of three per
// point, one in quick mode) and returns its speedup and efficiency
// metrics.
func scalingMetrics(o Options) ([]Metric, error) {
	reps := 3
	if o.Quick {
		reps = 1
	}
	counts := scalingWorkerCounts()
	cpus := runtime.NumCPU()
	var out []Metric
	for _, b := range scalingBenches(o.Quick) {
		var base time.Duration
		for _, threads := range counts {
			best := time.Duration(0)
			var bestStats *omp.Stats
			for r := 0; r < reps; r++ {
				el, st, err := b.run(threads)
				if err != nil {
					return nil, err
				}
				if best == 0 || el < best {
					best, bestStats = el, st
				}
			}
			if threads == 1 {
				base = best
			}
			if base == 0 {
				return nil, fmt.Errorf("perf: scaling %s: zero single-worker baseline", b.name)
			}
			speedup := float64(base) / float64(best)
			effPar := threads
			if cpus < effPar {
				effPar = cpus
			}
			params := fmt.Sprintf("%s/threads=%d/cpus=%d", b.params, threads, cpus)
			extra := map[string]float64{"elapsed_ns": float64(best.Nanoseconds())}
			if bestStats != nil {
				extra["tasks"] = float64(bestStats.TotalTasks())
				extra["tasks_stolen"] = float64(bestStats.TasksStolen)
				extra["steal_attempts"] = float64(bestStats.StealAttempts)
				extra["steal_fails"] = float64(bestStats.StealFails)
				extra["idle_parks"] = float64(bestStats.IdleParks)
				extra["taskwait_parks"] = float64(bestStats.TaskwaitParks)
			}
			out = append(out,
				Metric{
					Name:   "scaling/" + b.name + "/speedup",
					Value:  speedup,
					Unit:   "x",
					Better: "higher",
					Params: params,
					Extra:  extra,
				},
				Metric{
					Name:   "scaling/" + b.name + "/efficiency",
					Value:  speedup / float64(effPar),
					Unit:   "ratio",
					Better: "higher",
					Params: params,
				})
		}
	}
	return out, nil
}
