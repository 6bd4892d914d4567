// Command botsbench runs the pinned performance suite (internal/perf)
// and emits the next BENCH_<n>.json of the repository's perf
// trajectory: seven host-independent counts (spawn-path, submission
// and record-path allocations, the shed rate at a calibrated load),
// each gated by an absolute ceiling written in code, and the
// strong-scaling suite (per-point speedup and parallel efficiency for
// fib/nqueens/sort/strassen/sparselu at 1,2,4,… workers,
// informational).
//
//	botsbench                # full suite, writes ./BENCH_<n>.json
//	botsbench -quick         # CI smoke sizes, ceilings still enforced
//	botsbench -out ''        # run and print only
//
// The process exits non-zero, naming each one, when any gated metric
// is above its ceiling, so CI can run it directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"bots/internal/perf"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "reduced CI-smoke sizes (scaling at fib 20 and test-class macros, 1 rep)")
		outDir = flag.String("out", ".", "directory to emit BENCH_<n>.json into; empty = don't emit")
	)
	flag.Parse()

	rep, err := perf.Run(perf.Options{Quick: *quick})
	fatal(err)

	var benchPath string
	if *outDir != "" {
		benchPath, err = perf.NextBenchPath(*outDir)
		fatal(err)
		fatal(perf.WriteReport(rep, benchPath))
	}

	printMetrics(rep)
	if benchPath != "" {
		fmt.Printf("\nbotsbench: wrote %s\n", benchPath)
	}
	if v := rep.Violations(); len(v) > 0 {
		for _, m := range v {
			fmt.Fprintf(os.Stderr, "botsbench: %s = %.4g %s is above its ceiling %.4g\n", m.Name, m.Value, m.Unit, m.Ceiling)
		}
		os.Exit(1)
	}
}

// printMetrics renders the human-readable table: every metric, with
// the ceiling of the gated ones.
func printMetrics(rep *perf.Report) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tVALUE\tUNIT\tCEILING\tPARAMS")
	for _, m := range rep.Metrics {
		ceiling := "-"
		if m.Gate {
			ceiling = fmt.Sprintf("<= %.4g", m.Ceiling)
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%s\t%s\n", m.Name, m.Value, m.Unit, ceiling, m.Params)
	}
	tw.Flush()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "botsbench:", err)
		os.Exit(1)
	}
}
