package perf

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	_ "bots/internal/apps/all" // macro measurements resolve through the registry
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/omp"
)

// Options configures one suite run.
type Options struct {
	// Quick selects the reduced CI-smoke sizes (fib 20, nqueens 8,
	// test-class macros, one rep) instead of the full pinned sizes
	// (fib 25, nqueens 10, small-class macros, three reps).
	Quick bool
	// Threads is the team size for parallel measurements (default 4).
	Threads int
	// Reps overrides the repetition count (best-of-Reps for timing
	// metrics); 0 keeps the mode default.
	Reps int
}

func (o Options) defaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Reps <= 0 {
		if o.Quick {
			o.Reps = 1
		} else {
			o.Reps = 3
		}
	}
	return o
}

// Run executes the pinned benchmark suite and returns its report.
// The suite is deliberately small and fixed: the same micro kernels
// (fib and nqueens spawn rate, spawn-path allocation counts), the
// same per-scheduler steal-throughput probe, the same strong-scaling
// sweep (five benchmarks at 1,2,4,… workers; scaling.go), and the
// same two macro benchmarks (sort and strassen end-to-end) every run,
// so the BENCH_<n>.json trajectory stays comparable across PRs.
func Run(o Options) (*Report, error) {
	o = o.defaults()
	rep := &Report{
		Schema:    Schema,
		CreatedAt: time.Now().UTC(),
		Host:      lab.CurrentHost(),
		Quick:     o.Quick,
	}

	// Gated, host-independent: spawn-path allocations per task, on
	// the one-thread micro loops and over a whole sustained kernel.
	rep.Metrics = append(rep.Metrics, allocMetrics()...)
	sustained, err := sustainedAllocMetric()
	if err != nil {
		return nil, err
	}
	rep.Metrics = append(rep.Metrics, sustained)

	// Spawn rate: the tasks/second the runtime sustains on the
	// canonical recursive pattern, single-threaded (pure creation
	// overhead) and on a team (creation + queuing + stealing).
	fibN := 25
	if o.Quick {
		fibN = 20
	}
	fibThreads := []int{1, o.Threads}
	if o.Threads == 1 {
		fibThreads = fibThreads[:1] // metric keys must stay unique
	}
	for _, threads := range fibThreads {
		m := spawnRateFib(fibN, threads, o.Reps)
		rep.Metrics = append(rep.Metrics, m)
	}
	qN := 10
	if o.Quick {
		qN = 8
	}
	rep.Metrics = append(rep.Metrics, spawnRateNQueens(qN, o.Threads, o.Reps))

	// Steal throughput per registered scheduler: the same fib tree
	// pushed through every scheduler, reporting sustained tasks/s with
	// the contention counters (steal attempts/fails, idle parks)
	// alongside — the observable the backoff design is judged by.
	for _, sched := range omp.Schedulers() {
		rep.Metrics = append(rep.Metrics, stealThroughput(sched, fibN, o.Threads, o.Reps))
	}

	// Strong scaling: the same problems at 1,2,4,… workers, with
	// speedup (informational) and parallel-efficiency (gated) per
	// point — the paper's actual subject, and the regression net over
	// the scheduler/synchronization contention paths. See scaling.go.
	sm, err := scalingMetrics(o)
	if err != nil {
		return nil, err
	}
	rep.Metrics = append(rep.Metrics, sm...)

	// Macro: end-to-end application times through the core registry.
	class := "small"
	if o.Quick {
		class = "test"
	}
	for _, bench := range []string{"sort", "strassen"} {
		m, err := macroElapsed(bench, class, o.Threads, o.Reps)
		if err != nil {
			return nil, err
		}
		rep.Metrics = append(rep.Metrics, m)
	}

	// Service mode: persistent-team submission allocations (gated),
	// shed rate at calibrated load (gated at zero), and informational
	// tail-latency percentiles. See service.go.
	svc, err := serviceMetrics(o)
	if err != nil {
		return nil, err
	}
	rep.Metrics = append(rep.Metrics, svc...)

	// Observability layer: record-path allocations (gated at ~0) and
	// the informational flight-recorder fib tax. See obsmetrics.go.
	rep.Metrics = append(rep.Metrics, obsMetrics(o)...)

	// False-sharing ledger: what a shared cache line costs on this
	// host (informational; justifies the pads in internal/omp). See
	// pad.go.
	rep.Metrics = append(rep.Metrics, paddingMetrics(o)...)

	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("perf: suite produced an invalid report: %w", err)
	}
	return rep, nil
}

// perfFib is the task-per-node fib kernel used by the spawn-rate and
// steal probes (the paper's canonical overhead stressor: ~zero work
// per task, so elapsed time is pure runtime cost).
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

// runFibRegion runs one fib tree on a team and returns the region
// stats and elapsed time.
func runFibRegion(n, threads int, opts ...omp.TeamOpt) (*omp.Stats, time.Duration) {
	var res int64
	start := time.Now()
	st := omp.Parallel(threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			c.Task(func(c *omp.Context) { perfFib(c, n, &res) })
		})
	}, opts...)
	return st, time.Since(start)
}

func spawnRateFib(n, threads, reps int) Metric {
	var best float64
	var tasks int64
	for r := 0; r < reps; r++ {
		st, el := runFibRegion(n, threads)
		tasks = st.TotalTasks()
		if rate := float64(tasks) / el.Seconds(); rate > best {
			best = rate
		}
	}
	return Metric{
		Name:   "fib/spawn-rate",
		Value:  best,
		Unit:   "tasks/s",
		Better: "higher",
		Params: fmt.Sprintf("n=%d/threads=%d", n, threads),
		Extra:  map[string]float64{"tasks": float64(tasks)},
	}
}

// perfQueens counts n-queens solutions with one task per row
// placement above the cutoff depth — the paper's other spawn-heavy
// kernel, with a copied board per task (captured-environment cost).
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

func spawnRateNQueens(n, threads, reps int) Metric {
	var best float64
	var tasks int64
	for r := 0; r < reps; r++ {
		var count int64
		start := time.Now()
		st := omp.Parallel(threads, func(c *omp.Context) {
			c.Single(func(c *omp.Context) {
				perfQueens(c, make([]int8, 0, n), 0, &count)
			})
		})
		el := time.Since(start)
		tasks = st.TotalTasks()
		if rate := float64(tasks) / el.Seconds(); rate > best {
			best = rate
		}
	}
	return Metric{
		Name:   "nqueens/spawn-rate",
		Value:  best,
		Unit:   "tasks/s",
		Better: "higher",
		Params: fmt.Sprintf("n=%d/threads=%d", n, threads),
		Extra:  map[string]float64{"tasks": float64(tasks)},
	}
}

func stealThroughput(sched string, n, threads, reps int) Metric {
	var best float64
	var bestStats *omp.Stats
	for r := 0; r < reps; r++ {
		st, el := runFibRegion(n, threads, omp.WithScheduler(sched))
		if rate := float64(st.TotalTasks()) / el.Seconds(); rate > best || bestStats == nil {
			best = rate
			bestStats = st // counters always from the run that set the headline
		}
	}
	return Metric{
		Name:   "steal/" + sched + "/throughput",
		Value:  best,
		Unit:   "tasks/s",
		Better: "higher",
		Params: fmt.Sprintf("n=%d/threads=%d", n, threads),
		Extra: map[string]float64{
			"tasks_stolen":   float64(bestStats.TasksStolen),
			"steal_attempts": float64(bestStats.StealAttempts),
			"steal_fails":    float64(bestStats.StealFails),
			"idle_parks":     float64(bestStats.IdleParks),
		},
	}
}

func macroElapsed(bench, class string, threads, reps int) (Metric, error) {
	b, err := core.Get(bench)
	if err != nil {
		return Metric{}, err
	}
	cls, err := core.ParseClass(class)
	if err != nil {
		return Metric{}, err
	}
	var best time.Duration
	var last *core.RunResult
	for r := 0; r < reps; r++ {
		res, err := b.Run(core.RunConfig{
			Class:   cls,
			Version: b.BestVersion,
			Threads: threads,
		})
		if err != nil {
			return Metric{}, fmt.Errorf("perf: %s/%s: %w", bench, class, err)
		}
		last = res
		if best == 0 || res.Elapsed < best {
			best = res.Elapsed
		}
	}
	return Metric{
		Name:   bench + "/elapsed",
		Value:  float64(best.Nanoseconds()),
		Unit:   "ns",
		Better: "lower",
		Params: fmt.Sprintf("class=%s/version=%s/threads=%d", class, b.BestVersion, threads),
		Extra: map[string]float64{
			"tasks":        float64(last.Stats.TotalTasks()),
			"tasks_stolen": float64(last.Stats.TasksStolen),
		},
	}, nil
}

// sustainedAllocCeiling is the absolute gate on
// fib/spawn-allocs-sustained: one body closure per task is the
// kernel's own cost, and the runtime may add a fifth of an allocation
// on top (it adds ~0.01). Before in-region task reclamation, the
// targeted taskwait wake and value-typed options, the same run cost
// ~4.6.
const sustainedAllocCeiling = 1.2

// sustainedAllocMetric measures every heap allocation of one whole
// fib/none-tied small run on a two-thread team — kernel closures,
// runtime, region set-up — per task. The one-thread loops of
// allocMetrics stop after 2000 tasks and never steal or park; this is
// the regime the repository benchmark's region.finegrain runs in, so
// it is the gate that is comparable to the claim (a ceiling, not a
// moving baseline).
func sustainedAllocMetric() (Metric, error) {
	b, err := core.Get("fib")
	if err != nil {
		return Metric{}, err
	}
	cfg := core.RunConfig{Class: core.Small, Version: "none-tied", Threads: 2}
	if _, err := b.Run(cfg); err != nil { // warm the pooled queue storage
		return Metric{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := b.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Metric{}, err
	}
	tasks := res.Stats.TotalTasks()
	return Metric{
		Name:    "fib/spawn-allocs-sustained",
		Value:   float64(after.Mallocs-before.Mallocs) / float64(tasks),
		Unit:    "allocs/task",
		Better:  "lower",
		Gate:    true,
		Ceiling: sustainedAllocCeiling,
		Params:  "version=none-tied/class=small/threads=2",
		Extra: map[string]float64{
			"tasks":            float64(tasks),
			"bytes_per_task":   float64(after.TotalAlloc-before.TotalAlloc) / float64(tasks),
			"gc_cycles":        float64(after.NumGC - before.NumGC),
			"tasks_reclaimed":  float64(res.Stats.TasksReclaimed),
			"task_pool_misses": float64(res.Stats.TaskPoolMisses),
		},
	}, nil
}

// allocMetrics measures steady-state spawn-path allocations per task
// with testing.AllocsPerRun. These are the gated metrics: allocation
// counts are a property of the code, not of the host, so the
// committed baseline compares exactly across machines. Measurements
// run on a one-thread team so the counts are deterministic (no
// stealing, no racing pool refills).
func allocMetrics() []Metric {
	const n = 2000
	noop := func(c *omp.Context) {}

	deferred := testing.AllocsPerRun(10, func() {
		omp.Parallel(1, func(c *omp.Context) {
			for i := 0; i < n; i++ {
				c.Task(noop)
				if i%64 == 63 {
					c.Taskwait()
				}
			}
			c.Taskwait()
		})
	}) / n

	undeferred := testing.AllocsPerRun(10, func() {
		omp.Parallel(1, func(c *omp.Context) {
			for i := 0; i < n; i++ {
				c.Task(noop, omp.If(false))
			}
		})
	}) / n

	// Every spawned future is Wait()ed: consumption is what licenses
	// the typed cell pools to recycle at region end (future.go), so a
	// consumed future costs zero steady-state allocations — the number
	// this gate pins.
	future := testing.AllocsPerRun(10, func() {
		omp.Parallel(1, func(c *omp.Context) {
			fn := func(c *omp.Context) int { return 1 }
			var fs [64]*omp.Future[int]
			for i := 0; i < n; i++ {
				fs[i%64] = omp.Spawn(c, fn)
				if i%64 == 63 {
					for _, f := range fs {
						f.Wait(c)
					}
				}
			}
			c.Taskwait()
		})
	}) / n

	mk := func(name string, v float64) Metric {
		return Metric{Name: name, Value: v, Unit: "allocs/task", Better: "lower", Gate: true}
	}
	return []Metric{
		mk("fib/spawn-allocs", deferred),
		mk("fib/spawn-allocs-undeferred", undeferred),
		mk("future/spawn-allocs", future),
	}
}
