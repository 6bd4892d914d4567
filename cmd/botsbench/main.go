// Command botsbench runs the pinned performance suite (internal/perf)
// and emits the next BENCH_<n>.json of the repository's perf
// trajectory: spawn-path allocation counts (gated, host-independent),
// fib/nqueens spawn rates, per-scheduler steal throughput with
// contention counters, the strong-scaling suite (per-point speedup
// and gated parallel efficiency for fib/sort/strassen/nqueens/
// sparselu at 1,2,4,… workers), and sort/strassen end-to-end times —
// compared against the committed baseline
// (internal/perf/baseline.json).
//
// Continuous use:
//
//	botsbench                      # full suite, writes ./BENCH_<n>.json
//	botsbench -quick               # CI smoke sizes, gate still enforced
//	botsbench -store bots-lab.jsonl  # also ingest metrics into the lab store
//	botsbench -compare BENCH_0.json BENCH_1.json  # delta table, any two reports
//	botsbench -compare                 # delta of the newest two BENCH_*.json in -out
//
// The process exits non-zero when a gated metric regresses more than
// -max-regression against the baseline, so CI can run it directly.
// Timing metrics are informational (the committed baseline was
// measured on a different host than CI) and never fail the gate;
// scaling-efficiency metrics are gated but pin the measuring host's
// CPU count in their params, so they only compare against baselines
// from an equivalent host. When two reports' hosts differ in CPU count
// or Go version, neither the gate nor -compare reports timing deltas.
//
// Re-anchoring after a deliberate performance change:
//
//	botsbench -write-baseline internal/perf/baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"bots/internal/lab"
	"bots/internal/perf"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced CI-smoke sizes (fib 20, test-class macros, 1 rep)")
		threads  = flag.Int("threads", 4, "team size for parallel measurements")
		reps     = flag.Int("reps", 0, "timing repetitions (best-of); 0 = mode default")
		outDir   = flag.String("out", ".", "directory to emit BENCH_<n>.json into; empty = don't emit")
		baseline = flag.String("baseline", "", "baseline report to compare against; empty = embedded committed baseline")
		maxReg   = flag.Float64("max-regression", 0.25, "gated-metric regression threshold (fraction)")
		storeOpt = flag.String("store", "", "lab JSONL store to ingest the metrics into (optional)")
		writeTo  = flag.String("write-baseline", "", "write the run as a new baseline to this path and skip comparison")
		compare  = flag.Bool("compare", false, "compare two report files (botsbench -compare a.json b.json) and print a delta table instead of running the suite")
	)
	flag.Parse()

	if *compare {
		args := flag.Args()
		switch len(args) {
		case 0:
			// No operands: diff the newest two trajectory points in
			// -out (the CI benchmark-smoke job runs exactly this after
			// emitting its report, so every run's job summary shows
			// what moved since the previous committed BENCH_<n>.json).
			paths, err := perf.LatestBenchPaths(*outDir, 2)
			fatal(err)
			args = paths
			fmt.Printf("botsbench: comparing %s -> %s\n", args[0], args[1])
		case 2:
		default:
			fmt.Fprintln(os.Stderr, "botsbench: -compare takes two report files (old new), or none to diff the newest two BENCH_*.json in -out")
			os.Exit(2)
		}
		a, err := perf.ReadReport(args[0])
		fatal(err)
		b, err := perf.ReadReport(args[1])
		fatal(err)
		fmt.Print(perf.FormatComparison(a, b))
		return
	}

	rep, err := perf.Run(perf.Options{Quick: *quick, Threads: *threads, Reps: *reps})
	fatal(err)

	if *writeTo != "" {
		fatal(perf.WriteReport(rep, *writeTo))
		fmt.Printf("botsbench: wrote baseline %s (%d metrics)\n", *writeTo, len(rep.Metrics))
		printMetrics(rep)
		return
	}

	base, err := perf.LoadBaseline(*baseline)
	fatal(err)
	cmp := perf.Compare(rep, base, *maxReg)

	var benchPath string
	if *outDir != "" {
		benchPath, err = perf.NextBenchPath(*outDir)
		fatal(err)
		fatal(perf.WriteReport(rep, benchPath))
	}
	if *storeOpt != "" {
		store, err := lab.OpenStore(*storeOpt)
		fatal(err)
		err = perf.AppendToStore(store, rep)
		store.Close()
		fatal(err)
	}

	printMetrics(rep)
	if benchPath != "" {
		fmt.Printf("\nbotsbench: wrote %s (baseline of %s)\n", benchPath, cmp.BaselineCreatedAt.Format("2006-01-02"))
	}
	if cmp.Regressions > 0 {
		fmt.Fprintf(os.Stderr, "botsbench: %d gated metric(s) regressed more than %.0f%% — failing\n",
			cmp.Regressions, *maxReg*100)
		os.Exit(1)
	}
}

// printMetrics renders the human-readable table: every metric, with
// the baseline delta when the comparison matched it.
func printMetrics(rep *perf.Report) {
	deltaBy := map[string]perf.Delta{}
	if rep.Comparison != nil {
		for _, d := range rep.Comparison.Deltas {
			deltaBy[d.Name+"|"+d.Params] = d
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tVALUE\tUNIT\tVS BASELINE\tGATE\tPARAMS")
	for _, m := range rep.Metrics {
		vs := "-"
		if d, ok := deltaBy[m.Name+"|"+m.Params]; ok {
			arrow := "~"
			if d.Improved {
				arrow = "improved"
			} else if d.Pct != 0 {
				arrow = "worse"
			}
			vs = fmt.Sprintf("%+.1f%% (%s)", d.Pct, arrow)
			if d.Regression {
				vs += " REGRESSION"
			}
		}
		gate := ""
		if m.Gate {
			gate = "gated"
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%s\t%s\t%s\n", m.Name, m.Value, m.Unit, vs, gate, m.Params)
	}
	tw.Flush()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "botsbench:", err)
		os.Exit(1)
	}
}
