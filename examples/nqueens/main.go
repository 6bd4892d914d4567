// NQueens example: the paper's cut-off study (Figure 4) on your own
// machine — run the same search under the manual, if-clause, and
// no-cut-off task-creation disciplines and compare task counts,
// undeferred tasks, and steal/park behaviour, then simulate the
// recorded task graphs on a 16-thread virtual machine.
//
//	go run ./examples/nqueens -class small -threads 4 -virtual 16
//
// Each version runs on a real team of -threads, is verified against
// the sequential digest, and its recorded graph is replayed on
// -virtual simulated threads (at least -threads: every implicit task
// of the recording needs its own thread).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	_ "bots/internal/apps/all"
	"bots/internal/core"
	"bots/internal/omp"
	"bots/internal/sim"
	"bots/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// versions are the three cut-off disciplines the example compares.
var versions = []string{"manual-untied", "if-untied", "none-untied"}

// run is the example: it prints the sequential digest and one line
// per version, written only once that version's result verified.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nqueens", flag.ContinueOnError)
	className := fs.String("class", "test", "input class")
	threads := fs.Int("threads", 4, "real team size")
	virtual := fs.Int("virtual", 16, "simulated thread count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threads < 1 || *virtual < *threads {
		return fmt.Errorf("need 1 <= -threads <= -virtual, have %d and %d", *threads, *virtual)
	}

	class, err := core.ParseClass(*className)
	if err != nil {
		return err
	}
	b, err := core.Get("nqueens")
	if err != nil {
		return err
	}
	seq, err := b.Seq(class)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sequential: %s in %v\n\n", seq.Digest, seq.Elapsed)

	for _, version := range versions {
		var rt omp.CutoffPolicy
		if version == "none-untied" {
			rt = omp.MaxTasks{} // what a 2009 runtime would do on its own
		}
		rec := trace.NewRecorder()
		res, err := b.Run(core.RunConfig{
			Class: class, Version: version, Threads: *threads,
			RuntimeCutoff: rt, Recorder: rec,
		})
		if err != nil {
			return err
		}
		if err := b.Check(seq, res); err != nil {
			return fmt.Errorf("%s: %w", version, err)
		}
		tr := rec.Finish()
		p := sim.DefaultOverheads()
		p.WorkUnitNS = float64(seq.Elapsed.Nanoseconds()) / float64(seq.Work)
		r, err := sim.Run(tr, *virtual, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-13s verified tasks=%-8d undeferred=%-8d recorded(%dT) simulated(%dT): speedup=%.2f steals=%d\n",
			version, res.Stats.TasksCreated, res.Stats.TasksUndeferred,
			tr.NumRoots, *virtual, r.Speedup, r.Steals)
	}
	return nil
}
