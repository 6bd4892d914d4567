// Package fib implements the BOTS Fibonacci benchmark: the n-th
// Fibonacci number by naive binary recursion, parallelized with one
// task per recursive call. As the paper notes, it is not a sensible
// way to compute Fibonacci numbers; it is the canonical stress test
// of a deep tree of very fine-grained tasks, where the entire
// challenge is task-management overhead. It ships with if-clause,
// manual and no-cut-off versions, tied and untied.
package fib

import (
	"fmt"
	"time"

	"bots/internal/core"
	"bots/internal/omp"
)

// Input sizes per class. Scaled from the paper's fib(50) medium so
// the no-cut-off version remains traceable (task count = 2·fib(n+1)−1).
var classN = map[core.Class]int{
	core.Test:   16,
	core.Small:  23,
	core.Medium: 27,
	core.Large:  31,
}

// DefaultCutoffDepth is the default depth for the if/manual cut-off
// versions, matching the grain BOTS uses for fib.
const DefaultCutoffDepth = 10

// capturedBytes is the environment copied into each task: the int
// argument and the result pointer.
const capturedBytes = 16

// Seq computes fib(n) by naive recursion, returning the value and
// the number of calls performed (the benchmark's work measure).
func Seq(n int) (value uint64, calls int64) {
	if n < 2 {
		return uint64(n), 1
	}
	a, ca := Seq(n - 1)
	b, cb := Seq(n - 2)
	return a + b, ca + cb + 1
}

// Iterative computes fib(n) in linear time; it is the benchmark's
// output-validation oracle.
func Iterative(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// frame is one task's firstprivate environment: the argument, the
// task's depth, where to return the value, and the two result slots
// its children write. BOTS's C version returns each child's value
// through a variable on the parent's stack; here the slots live in the
// parent's task cell, which stays valid until the parent's body
// returns — after its taskwait, so after every child has written.
type frame struct {
	m, depth int
	dst      *uint64
	ab       [2]uint64
}

// run is the state one parallel fib computation shares across its
// tasks. Every task is spawned through the tasks TaskFunc, which copies
// its frame into a recycled cell, so a task costs no allocation in
// this package.
type run struct {
	cutoff  int
	variant core.Variant
	// opts is the clause list of every deferred spawn and cutOpts that
	// of an if version's spawn at or past the cut-off, built once per
	// run so no spawn rebuilds and copies them.
	opts, cutOpts []omp.TaskOpt
	tasks         *omp.TaskFunc[frame]
}

// par runs one task-parallel fib computation.
func (r *run) par(c *omp.Context, f *frame) {
	c.AddWork(1)
	c.AddWrites(0, 1) // result returned through a shared (parent-stack) variable
	if f.m < 2 {
		*f.dst = uint64(f.m)
		return
	}
	r.spawn(c, f.m-1, f.depth, &f.ab[0])
	r.spawn(c, f.m-2, f.depth, &f.ab[1])
	c.Taskwait()
	*f.dst = f.ab[0] + f.ab[1]
}

// spawn computes fib(m) into dst from a task at the given depth: as a
// child task, or under the manual cut-off by plain recursion.
func (r *run) spawn(c *omp.Context, m, depth int, dst *uint64) {
	opts := r.opts
	if depth >= r.cutoff {
		switch r.variant.Cutoff {
		case "manual":
			// Manual cut-off: plain recursion, no task at all.
			v, calls := Seq(m)
			c.AddWork(calls)
			c.AddWrites(0, calls)
			*dst = v
			return
		case "if":
			opts = r.cutOpts
		}
	}
	r.tasks.Task(c, frame{m: m, depth: depth + 1, dst: dst}, opts...)
}

func digest(n int, v uint64) string { return fmt.Sprintf("fib(%d)=%d", n, v) }

func seqRun(class core.Class) (*core.SeqResult, error) {
	n := classN[class]
	start := time.Now()
	v, calls := Seq(n)
	elapsed := time.Since(start)
	if v != Iterative(n) {
		return nil, fmt.Errorf("fib: sequential self-check failed for n=%d", n)
	}
	return &core.SeqResult{
		Digest:   digest(n, v),
		Work:     calls,
		Elapsed:  elapsed,
		MemBytes: int64(n) * 64, // recursion stack only
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
	var res uint64
	opts := core.TaskOpts(capturedBytes, variant.Untied, omp.TaskOpt{})
	cutOpts := core.TaskOpts(capturedBytes, variant.Untied, omp.If(false))
	r := &run{cutoff: cutoff, variant: variant, opts: opts[:], cutOpts: cutOpts[:]}
	r.tasks = omp.NewTaskFunc(cfg.Threads, r.par)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			r.tasks.Task(c, frame{m: n, dst: &res}, r.opts...)
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	if res != Iterative(n) {
		return nil, fmt.Errorf("fib: parallel result %d != %d for n=%d (version %s)",
			res, Iterative(n), n, cfg.Version)
	}
	return &core.RunResult{
		Digest:  digest(n, res),
		Stats:   st,
		Elapsed: elapsed,
	}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "fib",
		Origin:         "-",
		Domain:         "Integer",
		Structure:      "At each node",
		TaskDirectives: 2,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Versions:       core.CutoffVersions(),
		BestVersion:    "manual-tied",
		Profile:        core.Profile{MemFraction: 0.05, BandwidthCap: 16},
		Seq:            seqRun,
		Run:            parRun,
	})
}
