// Command bots runs a single BOTS benchmark, in the spirit of the
// original suite's per-application drivers: pick an application, an
// input class, a version (tied/untied × cut-off × generator), a
// thread count, and optionally a runtime cut-off and scheduling
// policy; the driver runs the sequential reference, the parallel
// version, verifies the result, and reports runtime statistics.
//
// Examples:
//
//	bots -list
//	bots -bench sort -class medium -version untied -threads 4
//	bots -bench nqueens -version manual-untied -cutoff 5 -verify=false
//	bots -bench fib -version none-tied -runtime-cutoff maxtasks
//	bots -bench sort -class small -threads 8 -policy centralized
//	bots -bench sparselu -version for-tied -simulate 32
//	bots -bench sparselu -version dep-tied -class medium
//	bots -bench strassen -version future-untied -threads 8
//	bots -bench fib -class test -json            # machine-readable lab Record
//	bots -bench fib -json -store bots-lab.jsonl  # ...persisted/cached in the store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	_ "bots/internal/apps/all"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/obs"
	"bots/internal/omp"
	"bots/internal/sim"
	"bots/internal/trace"
)

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// errUsage marks a command-line mistake.
var errUsage = errors.New("usage")

// exitCode reports err on stderr and maps it to the exit status: 0
// on success or -h, 2 on a usage error, 1 otherwise.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "bots:", err)
	if errors.Is(err, errUsage) {
		return 2
	}
	return 1
}

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
		simulate  = fs.Int("simulate", 0, "also record a task graph and simulate this many virtual threads (0 = off)")
		jsonOut   = fs.Bool("json", false, "run the full lab pipeline (seq reference + verify + simulate; -simulate 0 means the recording team size) and emit the machine-readable lab Record instead of text")
		storePath = fs.String("store", "", "with -json: persist the record in (and answer cache hits from) this lab store")
		obsDump   = fs.Bool("obs", false, "after the run, dump its runtime counters as bots_run_* Prometheus text exposition on stdout")
		procs     = fs.Int("procs", 0, "set GOMAXPROCS for the run — the oversubscription axis (0 = runtime default; -threads greater than -procs oversubscribes)")
		pin       = fs.Bool("pin", false, "wire each team worker to an OS thread for the run (the pinning axis)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	if *list {
		for _, b := range core.All() {
			fmt.Fprintf(stdout, "%-10s best=%-14s versions=%s\n", b.Name, b.BestVersion, strings.Join(b.Versions, ","))
		}
		return nil
	}
	if *bench == "" {
		return fmt.Errorf("%w: -bench is required (or -list); see -h", errUsage)
	}
	b, err := core.Get(*bench)
	if err != nil {
		return err
	}
	class, err := core.ParseClass(*className)
	if err != nil {
		return err
	}
	v := *version
	if v == "" {
		v = b.BestVersion
	}
	if !b.HasVersion(v) {
		return fmt.Errorf("benchmark %q has no version %q (have %s)",
			b.Name, v, strings.Join(b.Versions, ", "))
	}

	if *jsonOut {
		// The -json path runs the cell through the lab pipeline so
		// one-off runs and sweep results share one Record schema. The
		// pipeline always runs the sequential reference (it calibrates
		// the simulator) and always simulates; flags that would skip
		// those stages in text mode do not apply here.
		if !*verify {
			fmt.Fprintln(stderr, "bots: note: -json always runs the sequential reference and verification; -verify=false is ignored")
		}
		spec := lab.JobSpec{
			Bench:         b.Name,
			Version:       v,
			Class:         class.String(),
			Threads:       *threads,
			CutoffDepth:   *cutoff,
			RuntimeCutoff: *rtCutoff,
			Policy:        *policy,
			Simulate:      *simulate,
			Procs:         *procs,
			Pin:           *pin,
		}
		var runner lab.Runner = lab.NewDirectRunner()
		if *storePath != "" {
			store, err := lab.OpenStore(*storePath)
			if err != nil {
				return err
			}
			defer store.Close()
			runner = lab.NewCachedRunner(store, runner)
		}
		rec, err := runner.Run(spec)
		if err != nil {
			return err
		}
		if err := rec.WriteJSON(stdout); err != nil {
			return err
		}
		if !rec.Verified {
			return fmt.Errorf("verification failed: %s", rec.VerifyError)
		}
		return nil
	}

	cfg := core.RunConfig{
		Class:       class,
		Version:     v,
		Threads:     *threads,
		CutoffDepth: *cutoff,
		Scheduler:   *policy,
		Procs:       *procs,
		PinWorkers:  *pin,
	}
	if *procs > 0 {
		// Set before the sequential reference, so both sides of a
		// -verify run use the same proc count.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(*procs))
	}
	// Both name vocabularies resolve through omp's constructors, the
	// same single source of truth lab manifests validate against.
	if cfg.RuntimeCutoff, err = omp.NewCutoff(*rtCutoff); err != nil {
		return err
	}
	if _, err := omp.NewScheduler(*policy); err != nil {
		return err
	}

	var seq *core.SeqResult
	if *verify || *simulate > 0 {
		if seq, err = b.Seq(class); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sequential: %v (work=%d units, mem≈%d bytes)\n", seq.Elapsed, seq.Work, seq.MemBytes)
	}

	var rec *trace.Recorder
	if *simulate > 0 {
		rec = trace.NewRecorder()
		cfg.Threads = *simulate
		cfg.Recorder = rec
		fmt.Fprintf(stdout, "note: -simulate records on a %d-thread team\n", *simulate)
	}
	res, err := b.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "parallel %s/%s on %d threads: %v\n", b.Name, v, cfg.Threads, res.Elapsed)
	fmt.Fprintf(stdout, "  %s\n", res.Stats)
	if res.Metric > 0 {
		fmt.Fprintf(stdout, "  metric: %.0f (nodes visited; throughput = %.0f nodes/s)\n",
			res.Metric, res.Metric/res.Elapsed.Seconds())
	}
	if *verify {
		if err := b.Check(seq, res); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "  verification: OK")
	}
	if *obsDump {
		// One-shot exposition dump of the finished region's counters —
		// the same vocabulary a live team publishes (obs/DESIGN.md
		// §11), labeled with the run's cell coordinates so dumps from
		// different cells can be concatenated and still be valid.
		reg := obs.NewRegistry()
		st := *res.Stats
		cell := []obs.Label{{Name: "bench", Value: b.Name}, {Name: "version", Value: v},
			{Name: "scheduler", Value: *policy}, {Name: "threads", Value: strconv.Itoa(cfg.Threads)}}
		omp.RegisterStats(reg, "bots_run", func() omp.Stats { return st }, cell...)
		reg.GaugeFunc("bots_run_elapsed_seconds", "Wall-clock time of the parallel run.",
			func() float64 { return res.Elapsed.Seconds() }, cell...)
		if err := reg.WritePrometheus(stdout); err != nil {
			return err
		}
	}
	if *simulate > 0 {
		tr := rec.Finish()
		if err := tr.Validate(); err != nil {
			return err
		}
		p := sim.DefaultOverheads()
		p.WorkUnitNS = float64(seq.Elapsed.Nanoseconds()) / float64(seq.Work)
		p.MemFraction = b.Profile.MemFraction
		p.BandwidthCap = b.Profile.BandwidthCap
		p.Scheduler = *policy // replay under the matching queue discipline
		r, err := sim.Run(tr, *simulate, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  simulated on %d virtual threads: %s\n", *simulate, r)
	}
	return nil
}
