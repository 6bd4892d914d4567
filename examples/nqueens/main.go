// NQueens example: the paper's cut-off study (Figure 4) on your own
// machine — run the same search under the manual, if-clause, and
// no-cut-off task-creation disciplines and compare task counts,
// undeferred tasks, and steal/park behaviour, then simulate the
// recorded task graphs on a 16-thread virtual machine.
//
//	go run ./examples/nqueens -class small -threads 4 -virtual 16
//
// Each version is one lab cell (lab.Executor): it runs on a real team
// of -threads, is verified against the sequential digest, and its
// recorded graph is replayed on -virtual simulated threads under the
// lab's calibration (at least -threads: every implicit task of the
// recording needs its own thread).
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
	"bots/internal/lab"
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
// One Executor shares the sequential baseline between the cells.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nqueens", flag.ContinueOnError)
	className := fs.String("class", "test", "input class")
	threads := fs.Int("threads", 4, "real team size")
	virtual := fs.Int("virtual", 16, "simulated thread count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := make([]lab.JobSpec, len(versions))
	for i, version := range versions {
		specs[i] = lab.JobSpec{Bench: "nqueens", Version: version, Class: *className,
			Threads: *threads, Simulate: *virtual}
		if version == "none-untied" {
			specs[i].RuntimeCutoff = "maxtasks" // what a 2009 runtime would do on its own
		}
		if err := specs[i].Validate(); err != nil {
			return err
		}
	}

	exec := lab.NewExecutor()
	b, _ := core.Get("nqueens") // the specs validated
	class, _ := core.ParseClass(*className)
	seq, err := exec.Baseline(b, class)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sequential: %s in %v\n\n", seq.Digest, seq.Elapsed)

	for _, spec := range specs {
		rec, err := exec.Execute(spec)
		if err != nil {
			return err
		}
		if !rec.Verified {
			return fmt.Errorf("%s: %s", spec.Version, rec.VerifyError)
		}
		fmt.Fprintf(stdout, "%-13s verified tasks=%-8d undeferred=%-8d recorded(%dT) simulated(%dT): speedup=%.2f steals=%d\n",
			spec.Version, rec.Stats.TasksCreated, rec.Stats.TasksUndeferred,
			rec.Spec.Threads, rec.Sim.Threads, rec.Sim.Speedup, rec.Sim.Steals)
	}
	return nil
}
