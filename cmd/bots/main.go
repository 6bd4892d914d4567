// Command bots runs a single BOTS benchmark, in the spirit of the
// original suite's per-application drivers: pick an application, an
// input class, a version (tied/untied × cut-off × generator), a
// thread count, and optionally a runtime cut-off and scheduling
// policy; the driver runs the sequential reference, the parallel
// version, verifies the result, and reports runtime statistics. With
// -simulate or -json the run is one lab cell (lab.Executor): the same
// record, key and store as a sweep's cell.
//
// Examples:
//
//	bots -list
//	bots -bench sort -class medium -version untied -threads 4
//	bots -bench nqueens -version manual-untied -cutoff 5 -verify=false
//	bots -bench fib -version none-tied -runtime-cutoff maxtasks
//	bots -bench sort -class small -threads 8 -policy centralized
//	bots -bench sparselu -version for-tied -simulate 32  # lab cell, as text
//	bots -bench sparselu -version dep-tied -class medium
//	bots -bench strassen -version future-untied -threads 8
//	bots -bench fib -class test -json            # machine-readable lab Record
//	bots -bench fib -json -store bots-lab.jsonl  # ...persisted/cached in the store
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	_ "bots/internal/apps/all"
	"bots/internal/cli"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/obs"
	"bots/internal/omp"
)

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

var exitCode = cli.ExitCode("bots")

// run is the driver. A run has no point at which it could stop early,
// so ctx goes unread and Ctrl-C keeps its default effect.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bots", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list benchmarks and versions")
		bench     = fs.String("bench", "", "benchmark name")
		className = fs.String("class", "small", "input class: test/small/medium/large")
		version   = fs.String("version", "", "version to run (default: the benchmark's best version)")
		threads   = fs.Int("threads", 4, "team size")
		cutoff    = fs.Int("cutoff", 0, "application depth cut-off override (0 = default)")
		rtCutoff  = fs.String("runtime-cutoff", "none", "runtime cut-off: "+strings.Join(omp.Cutoffs(), "/"))
		policy    = fs.String("policy", "workfirst", "task scheduler: "+strings.Join(omp.Schedulers(), "/"))
		verify    = fs.Bool("verify", true, "run the sequential reference and verify the parallel result")
		simulate  = fs.Int("simulate", 0, "run the lab cell: record on -threads, verify, and simulate this many virtual threads (0 = off; must be >= -threads)")
		jsonOut   = fs.Bool("json", false, "run the full lab pipeline (seq reference + verify + simulate; -simulate 0 means the recording team size) and emit the machine-readable lab Record instead of text")
		storePath = fs.String("store", "", "with -json or -simulate: persist the record in (and answer cache hits from) this lab store")
		obsDump   = fs.Bool("obs", false, "after the run, dump its runtime counters as bots_run_* Prometheus text exposition on stdout")
		procs     = fs.Int("procs", 0, "set GOMAXPROCS for the run — the oversubscription axis (0 = runtime default; -threads greater than -procs oversubscribes)")
		pin       = fs.Bool("pin", false, "wire each team worker to an OS thread for the run (the pinning axis)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}

	if *list {
		for _, b := range core.All() {
			fmt.Fprintf(stdout, "%-10s best=%-14s versions=%s\n", b.Name, b.BestVersion, strings.Join(b.Versions, ","))
		}
		return nil
	}
	if *bench == "" {
		return fmt.Errorf("%w: -bench is required (or -list); see -h", cli.ErrUsage)
	}
	b, err := core.Get(*bench)
	if err != nil {
		return err
	}
	spec := lab.JobSpec{
		Bench:         b.Name,
		Version:       cmp.Or(*version, b.BestVersion),
		Class:         *className,
		Threads:       *threads,
		CutoffDepth:   *cutoff,
		RuntimeCutoff: *rtCutoff,
		Policy:        *policy,
		Simulate:      *simulate,
		Procs:         *procs,
		Pin:           *pin,
	}
	// Every run is checked as a lab cell is: names resolve through
	// omp's constructors, the one vocabulary manifests use too.
	if err := spec.Validate(); err != nil {
		return err
	}

	var st *omp.Stats
	var elapsed time.Duration
	if *jsonOut || *simulate > 0 {
		// A -json or -simulate run is one lab cell: the pipeline
		// records on -threads, always runs the sequential reference
		// (it calibrates the simulator), verifies and simulates, so
		// one-off runs and sweep results share one Record. -simulate 0
		// with -json simulates the recording team size. Without
		// -store the cell is cached in memory only.
		if !*verify {
			fmt.Fprintln(stderr, "bots: note: a lab cell always runs the sequential reference and verification; -verify=false is ignored")
		}
		store, err := lab.OpenStore(*storePath)
		if err != nil {
			return err
		}
		defer store.Close()
		rec, err := lab.NewCachedRunner(store, lab.NewDirectRunner()).Run(spec)
		if err != nil {
			return err
		}
		if !*jsonOut {
			writeCell(stdout, rec)
		} else if err := rec.WriteJSON(stdout); err != nil {
			return err
		}
		if !rec.Verified {
			return fmt.Errorf("verification failed: %s", rec.VerifyError)
		}
		if *jsonOut {
			return nil
		}
		st, elapsed = rec.Stats, time.Duration(rec.ElapsedNS)
	} else {
		class, _ := core.ParseClass(spec.Class) // Validate resolved both
		rtCutoff, _ := omp.NewCutoff(spec.RuntimeCutoff)
		if *procs > 0 {
			// Set before the sequential reference, so both sides of a
			// -verify run use the same proc count.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(*procs))
		}
		var seq *core.SeqResult
		if *verify {
			if seq, err = b.Seq(class); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "sequential: %v (work=%d units, mem≈%d bytes)\n", seq.Elapsed, seq.Work, seq.MemBytes)
		}
		res, err := b.Run(core.RunConfig{Class: class, Version: spec.Version, Threads: *threads, CutoffDepth: *cutoff,
			RuntimeCutoff: rtCutoff, Scheduler: *policy, Procs: *procs, PinWorkers: *pin})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "parallel %s/%s on %d threads: %v\n", b.Name, spec.Version, *threads, res.Elapsed)
		writeStats(stdout, res.Stats, res.Metric, res.Elapsed)
		if *verify {
			if err := b.Check(seq, res); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "  verification: OK")
		}
		st, elapsed = res.Stats, res.Elapsed
	}
	if !*obsDump {
		return nil
	}
	// One-shot exposition dump of the finished region's counters —
	// the same vocabulary a live team publishes (obs/DESIGN.md §11),
	// labeled with the run's cell coordinates so dumps from different
	// cells can be concatenated and still be valid.
	reg := obs.NewRegistry()
	cell := []obs.Label{{Name: "bench", Value: b.Name}, {Name: "version", Value: spec.Version},
		{Name: "scheduler", Value: *policy}, {Name: "threads", Value: strconv.Itoa(*threads)}}
	omp.RegisterStats(reg, "bots_run", func() omp.Stats { return *st }, cell...)
	reg.GaugeFunc("bots_run_elapsed_seconds", "Wall-clock time of the parallel run.",
		func() float64 { return elapsed.Seconds() }, cell...)
	return reg.WritePrometheus(stdout)
}

// writeCell prints a lab cell's Record as text, the way a plain run
// prints its own result.
func writeCell(w io.Writer, rec *lab.Record) {
	elapsed := time.Duration(rec.ElapsedNS)
	fmt.Fprintf(w, "lab cell %s\n", rec.Key)
	fmt.Fprintf(w, "sequential: %v (work=%d units, mem≈%d bytes)\n",
		time.Duration(rec.Seq.ElapsedNS), rec.Seq.Work, rec.Seq.MemBytes)
	fmt.Fprintf(w, "parallel %s/%s recorded on %d threads: %v\n", rec.Spec.Bench, rec.Spec.Version, rec.Spec.Threads, elapsed)
	writeStats(w, rec.Stats, rec.Metric, elapsed)
	if rec.Verified {
		fmt.Fprintln(w, "  verification: OK")
	}
	s := rec.Sim
	fmt.Fprintf(w, "  simulated on %d virtual threads: speedup=%.2f makespan=%.3fms steals=%d parks=%d\n",
		s.Threads, s.Speedup, s.MakespanNS/1e6, s.Steals, s.Parks)
}

// writeStats prints a parallel run's runtime counters and, when the
// benchmark reports one, its throughput metric.
func writeStats(w io.Writer, st *omp.Stats, metric float64, elapsed time.Duration) {
	fmt.Fprintf(w, "  %s\n", st)
	if metric > 0 {
		fmt.Fprintf(w, "  metric: %.0f (nodes visited; throughput = %.0f nodes/s)\n",
			metric, metric/elapsed.Seconds())
	}
}
