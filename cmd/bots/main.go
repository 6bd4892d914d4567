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
	"flag"
	"fmt"
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
	var (
		list      = flag.Bool("list", false, "list benchmarks and versions")
		bench     = flag.String("bench", "", "benchmark name")
		className = flag.String("class", "small", "input class: test/small/medium/large")
		version   = flag.String("version", "", "version to run (default: the benchmark's best version)")
		threads   = flag.Int("threads", 4, "team size")
		cutoff    = flag.Int("cutoff", 0, "application depth cut-off override (0 = default)")
		rtCutoff  = flag.String("runtime-cutoff", "none", "runtime cut-off: "+strings.Join(omp.Cutoffs(), "/"))
		policy    = flag.String("policy", "workfirst", "task scheduler: "+strings.Join(omp.Schedulers(), "/"))
		verify    = flag.Bool("verify", true, "run the sequential reference and verify the parallel result")
		simulate  = flag.Int("simulate", 0, "also record a task graph and simulate this many virtual threads (0 = off)")
		jsonOut   = flag.Bool("json", false, "run the full lab pipeline (seq reference + verify + simulate; -simulate 0 means the recording team size) and emit the machine-readable lab Record instead of text")
		storePath = flag.String("store", "", "with -json: persist the record in (and answer cache hits from) this lab store")
		obsDump   = flag.Bool("obs", false, "after the run, dump its runtime counters as bots_run_* Prometheus text exposition on stdout")
		procs     = flag.Int("procs", 0, "set GOMAXPROCS for the run — the oversubscription axis (0 = runtime default; -threads greater than -procs oversubscribes)")
		pin       = flag.Bool("pin", false, "wire each team worker to an OS thread for the run (the pinning axis)")
	)
	flag.Parse()

	if *list {
		for _, b := range core.All() {
			fmt.Printf("%-10s best=%-14s versions=%s\n", b.Name, b.BestVersion, strings.Join(b.Versions, ","))
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "bots: -bench is required (or -list); see -h")
		os.Exit(2)
	}
	b, err := core.Get(*bench)
	fatal(err)
	class, err := core.ParseClass(*className)
	fatal(err)
	v := *version
	if v == "" {
		v = b.BestVersion
	}
	if !b.HasVersion(v) {
		fatal(fmt.Errorf("benchmark %q has no version %q (have %s)",
			b.Name, v, strings.Join(b.Versions, ", ")))
	}

	if *jsonOut {
		// The -json path runs the cell through the lab pipeline so
		// one-off runs and sweep results share one Record schema. The
		// pipeline always runs the sequential reference (it calibrates
		// the simulator) and always simulates; flags that would skip
		// those stages in text mode do not apply here.
		if !*verify {
			fmt.Fprintln(os.Stderr, "bots: note: -json always runs the sequential reference and verification; -verify=false is ignored")
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
			fatal(err)
			defer store.Close()
			runner = lab.NewCachedRunner(store, runner)
		}
		rec, err := runner.Run(spec)
		fatal(err)
		fatal(rec.WriteJSON(os.Stdout))
		if !rec.Verified {
			fmt.Fprintf(os.Stderr, "bots: verification failed: %s\n", rec.VerifyError)
			os.Exit(1)
		}
		return
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
		// The process exits after the run, so no restore is needed;
		// setting it before the sequential reference keeps both sides
		// of a -verify run under the same proc count.
		runtime.GOMAXPROCS(*procs)
	}
	// Both name vocabularies resolve through omp's constructors, the
	// same single source of truth lab manifests validate against.
	rc, err := omp.NewCutoff(*rtCutoff)
	fatal(err)
	cfg.RuntimeCutoff = rc
	_, err = omp.NewScheduler(*policy)
	fatal(err)

	var seq *core.SeqResult
	if *verify || *simulate > 0 {
		seq, err = b.Seq(class)
		fatal(err)
		fmt.Printf("sequential: %v (work=%d units, mem≈%d bytes)\n", seq.Elapsed, seq.Work, seq.MemBytes)
	}

	var rec *trace.Recorder
	if *simulate > 0 {
		rec = trace.NewRecorder()
		cfg.Threads = *simulate
		cfg.Recorder = rec
		fmt.Printf("note: -simulate records on a %d-thread team\n", *simulate)
	}
	res, err := b.Run(cfg)
	fatal(err)
	fmt.Printf("parallel %s/%s on %d threads: %v\n", b.Name, v, cfg.Threads, res.Elapsed)
	fmt.Printf("  %s\n", res.Stats)
	if res.Metric > 0 {
		fmt.Printf("  metric: %.0f (nodes visited; throughput = %.0f nodes/s)\n",
			res.Metric, res.Metric/res.Elapsed.Seconds())
	}
	if *verify {
		if err := b.Check(seq, res); err != nil {
			fatal(err)
		}
		fmt.Println("  verification: OK")
	}
	if *obsDump {
		// One-shot exposition dump of the finished region's counters —
		// the same vocabulary a live team publishes (obs/DESIGN.md
		// §11), labeled with the run's cell coordinates so dumps from
		// different cells can be concatenated and still be valid.
		reg := obs.NewRegistry()
		st := *res.Stats
		omp.RegisterStats(reg, "bots_run", func() omp.Stats { return st },
			obs.Label{Name: "bench", Value: b.Name},
			obs.Label{Name: "version", Value: v},
			obs.Label{Name: "scheduler", Value: *policy},
			obs.Label{Name: "threads", Value: strconv.Itoa(cfg.Threads)})
		reg.GaugeFunc("bots_run_elapsed_seconds", "Wall-clock time of the parallel run.",
			func() float64 { return res.Elapsed.Seconds() },
			obs.Label{Name: "bench", Value: b.Name},
			obs.Label{Name: "version", Value: v},
			obs.Label{Name: "scheduler", Value: *policy},
			obs.Label{Name: "threads", Value: strconv.Itoa(cfg.Threads)})
		fatal(reg.WritePrometheus(os.Stdout))
	}
	if *simulate > 0 {
		tr := rec.Finish()
		if err := tr.Validate(); err != nil {
			fatal(err)
		}
		p := sim.DefaultOverheads()
		p.WorkUnitNS = float64(seq.Elapsed.Nanoseconds()) / float64(seq.Work)
		p.MemFraction = b.Profile.MemFraction
		p.BandwidthCap = b.Profile.BandwidthCap
		p.Scheduler = *policy // replay under the matching queue discipline
		r, err := sim.Run(tr, *simulate, p)
		fatal(err)
		fmt.Printf("  simulated on %d virtual threads: %s\n", *simulate, r)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bots:", err)
		os.Exit(1)
	}
}
