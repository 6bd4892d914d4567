// Command botsreport regenerates every table and figure of the BOTS
// paper's evaluation (Duran et al., ICPP 2009) from this
// reproduction: Table I (application summary), Table II (per-task
// characteristics), Figure 3 (best-version speedups), Figure 4
// (cut-off mechanisms on NQueens), Figure 5 (tied vs untied), and the
// §IV-D ablations (cut-off value sweep, scheduling policies,
// generator schemes).
//
// Every experiment cell goes through the lab's cached runner: results
// persist in a JSONL store (-store), so re-rendering a report
// re-executes nothing that is already measured, and cells within a
// figure run concurrently on first measurement.
//
//	botsreport                      # everything, medium class
//	botsreport -class small -only fig3,fig4
//	botsreport -store /tmp/lab.jsonl -threads 1,2,4,8
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	_ "bots/internal/apps/all"
	"bots/internal/cli"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/report"
)

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

var exitCode = cli.ExitCode("botsreport")

// run is the driver. Rendering has no point at which it could stop
// early, so ctx goes unread and Ctrl-C keeps its default effect.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("botsreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		className = fs.String("class", "medium", "input class for all experiments")
		only      = fs.String("only", "", "comma-separated subset of: "+strings.Join(report.Artifacts(), ","))
		threads   = fs.String("threads", "", "comma-separated thread axis (default 1,2,4,8,16,24,32)")
		storePath = fs.String("store", "bots-lab.jsonl", "lab result store (JSONL); empty = in-memory only")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}

	class, err := core.ParseClass(*className)
	if err != nil {
		return err
	}
	var axis []int
	if *threads != "" {
		if axis, err = parseThreadAxis(*threads); err != nil {
			return err
		}
	}
	selected := report.Artifacts()
	if *only != "" {
		selected = nil
		for _, part := range strings.Split(*only, ",") {
			name := strings.TrimSpace(part)
			if !slices.Contains(report.Artifacts(), name) {
				return fmt.Errorf("unknown artifact %q (have %s)", name, strings.Join(report.Artifacts(), ","))
			}
			selected = append(selected, name)
		}
	}

	store, err := lab.OpenStore(*storePath)
	if err != nil {
		return err
	}
	defer store.Close()
	direct := lab.NewDirectRunner()
	runner := lab.NewCachedRunner(store, direct)

	for _, name := range selected {
		if err := report.Render(runner, stdout, name, class, axis); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "botsreport: %d cache hits, %d executions (store %s, %d records)\n",
		runner.Hits(), direct.Exec.Executions(), cmp.Or(store.Path(), "in-memory"), store.Len())
	return nil
}

// parseThreadAxis parses a strictly positive comma-separated thread
// list, rejecting trailing garbage ("4x") and non-positive counts.
func parseThreadAxis(s string) ([]int, error) {
	var axis []int
	for _, part := range strings.Split(s, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -threads entry %q: %v", strings.TrimSpace(part), err)
		}
		if t < 1 {
			return nil, fmt.Errorf("bad -threads entry %d: thread counts must be >= 1", t)
		}
		axis = append(axis, t)
	}
	return axis, nil
}
