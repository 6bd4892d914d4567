// Depgraph: the dependency-aware tasking API in one small program —
// a four-stage pipeline over an array expressed with In/Out/InOut
// clauses (the runtime derives the task graph, no taskwait between
// stages), a typed Future carrying a result out of a task, and a
// Priority hint on the critical-path stage. Run it with -trace to
// dump the recorded dependence edges.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"bots/internal/omp"
	"bots/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the example: the pipeline's result, its statistics and, with
// -trace, one line per task with dependences.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("depgraph", flag.ContinueOnError)
	threads := fs.Int("threads", 4, "team size")
	showTrace := fs.Bool("trace", false, "print the recorded dependence edges")
	if err := fs.Parse(args); err != nil {
		return err
	}

	data := make([][]float64, 8)
	for i := range data {
		data[i] = []float64{float64(i + 1)}
	}
	var sum *omp.Future[float64]

	rec := trace.NewRecorder()
	stats := omp.Parallel(*threads, func(c *omp.Context) {
		c.SingleNowait(func(c *omp.Context) {
			// Stage 1: scale every cell (independent writers).
			for i := range data {
				cell := data[i]
				c.Task(func(c *omp.Context) {
					cell[0] *= 2
					c.AddWork(1)
				}, omp.Out(cell))
			}
			// Stage 2: neighbor exchange — each task reads cell i and
			// i+1 and writes cell i, so it can only start when stage 1
			// finished both inputs, and stage 3 on cell i must wait
			// for it. A diamond per cell, no barrier anywhere.
			for i := 0; i+1 < len(data); i++ {
				left, right := data[i], data[i+1]
				c.Task(func(c *omp.Context) {
					left[0] += right[0]
					c.AddWork(1)
				}, omp.InOut(left), omp.In(right))
			}
			// Stage 3: fold everything into cell 0; the chain is the
			// critical path, so it runs at high priority.
			acc := data[0]
			for i := 1; i < len(data); i++ {
				cell := data[i]
				c.Task(func(c *omp.Context) {
					acc[0] += cell[0]
					c.AddWork(1)
				}, omp.InOut(acc), omp.In(cell), omp.Priority(2))
			}
			// Stage 4: a typed future reads the folded value.
			sum = omp.Spawn(c, func(c *omp.Context) float64 {
				return acc[0]
			}, omp.In(acc))
		})
	}, omp.WithRecorder(rec))

	// Wait already happened implicitly: the region-end barrier drained
	// the graph, so the future is complete; Done shows that.
	fmt.Fprintf(stdout, "pipeline result: %.0f (future done: %v)\n", waitValue(sum), sum.Done())
	fmt.Fprintf(stdout, "stats: %s\n", stats)

	if *showTrace {
		for _, t := range rec.Finish().Tasks {
			if len(t.Deps) > 0 {
				fmt.Fprintf(stdout, "task %3d (prio %d) depends on %v\n", t.ID, t.Priority, t.Deps)
			}
		}
	}
	return nil
}

// waitValue demonstrates Future.Wait from inside a region: a fresh
// one-thread region waits on the already-completed future.
func waitValue(f *omp.Future[float64]) float64 {
	var v float64
	omp.Parallel(1, func(c *omp.Context) {
		v = f.Wait(c)
	})
	return v
}
