// Command botstrace records, analyzes and replays task-graph traces
// of the BOTS benchmarks.
//
//	botstrace -bench sort -class small -o sort.trace      # record
//	botstrace -analyze sort.trace                         # work/span profile
//	botstrace -simulate sort.trace -threads 16            # virtual replay
//	botstrace -bench fib -version none-tied -analyze -    # record + analyze
//
// The work/span analysis (total work W, critical path S, average
// parallelism W/S) explains the scaling ceilings in the paper's
// Figure 3 before any scheduler enters the picture: a benchmark can
// never speed up beyond W/S.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	_ "bots/internal/apps/all"
	"bots/internal/cli"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/sim"
	"bots/internal/trace"
)

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

var exitCode = cli.ExitCode("botstrace")

// run is the driver. Recording and replay have no point at which they
// could stop early, so ctx goes unread and Ctrl-C keeps its default
// effect.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("botstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "", "benchmark to record")
		className = fs.String("class", "small", "input class for -bench")
		version   = fs.String("version", "", "version (default: best)")
		record    = fs.Int("record-threads", 1, "team size for the recording run")
		out       = fs.String("o", "", "write the recorded trace to this file")
		analyze   = fs.String("analyze", "", "analyze a trace file ('-' with -bench: analyze the fresh recording)")
		simulate  = fs.String("simulate", "", "simulate a trace file ('-' with -bench: the fresh recording)")
		threads   = fs.Int("threads", 0, "virtual threads for -simulate (default: trace roots)")
		gantt     = fs.Bool("gantt", false, "with -simulate: render an ASCII Gantt chart of the schedule")
		chrome    = fs.String("chrome", "", "with -simulate: write a Chrome trace-event JSON file of the schedule")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	if *bench == "" && *analyze == "" && *simulate == "" {
		return fmt.Errorf("%w: nothing to do; see -h", cli.ErrUsage)
	}

	var tr *trace.Trace
	// A bare file has no baseline to calibrate against; -bench
	// calibrates the replay as the lab does its cells.
	params := sim.DefaultOverheads()
	params.WorkUnitNS = 10
	if *bench != "" {
		b, err := core.Get(*bench)
		if err != nil {
			return err
		}
		spec := lab.JobSpec{Bench: b.Name, Version: cmp.Or(*version, b.BestVersion), Class: *className, Threads: *record}
		if err := spec.Validate(); err != nil {
			return err
		}
		class, _ := core.ParseClass(spec.Class) // Validate resolved it
		seq, err := b.Seq(class)
		if err != nil {
			return err
		}
		params = lab.SimParams(b, seq, spec)
		rec := trace.NewRecorder()
		res, err := b.Run(core.RunConfig{
			Class: class, Version: spec.Version, Threads: *record, Recorder: rec,
		})
		if err != nil {
			return err
		}
		tr = rec.Finish()
		if err := tr.Validate(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %s/%s (%s class, %d-thread team): %d tasks, %v\n",
			*bench, spec.Version, class, *record, tr.NumTasks(), res.Elapsed)
		if *out != "" {
			n, err := writeFile(*out, tr.WriteTo)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d bytes, %.1f B/task)\n", *out, n, float64(n)/float64(len(tr.Tasks)))
		}
	}

	load := func(path string) (*trace.Trace, error) {
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return trace.ReadTrace(f)
		}
		if tr == nil {
			return nil, errors.New("'-' requires -bench to record a trace first")
		}
		return tr, nil
	}

	if *analyze != "" {
		t, err := load(*analyze)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%s", trace.Analyze(t))
	}
	if *simulate != "" {
		t, err := load(*simulate)
		if err != nil {
			return err
		}
		res, tl, err := sim.RunWithTimeline(t, cmp.Or(*threads, t.NumRoots), params)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ncost model: work unit %.3g ns, mem fraction %g, bandwidth cap %g\n",
			params.WorkUnitNS, params.MemFraction, params.BandwidthCap)
		fmt.Fprintf(stdout, "simulated: %s (utilization %.0f%%)\n", res, 100*tl.Utilization())
		if *gantt {
			fmt.Fprintln(stdout)
			tl.WriteGantt(stdout, 100)
		}
		if *chrome != "" {
			if _, err := writeFile(*chrome, func(w io.Writer) (int64, error) { return 0, tl.WriteChromeTrace(w, t) }); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
		}
	}
	return nil
}

// writeFile creates path, writes it with write and closes it, so a
// failed close (a full disk) is an error too.
func writeFile(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}
