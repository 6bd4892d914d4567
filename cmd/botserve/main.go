// Command botserve runs a BOTS kernel in service mode: an open-loop
// load generator (internal/serve) submits independent task-DAG
// requests to a persistent omp team and reports tail latency —
// queueing delay (scheduled arrival → root task start), service time
// (start → DAG complete), and total latency — as log-bucketed
// percentiles, plus throughput, shed counts, and runtime counters.
//
//	botserve -bench health -scheduler workfirst -rate 500 -duration 2s -json
//	botserve -bench sparselu-dep -rate 200 -requests 400
//	botserve -bench alignment -arrivals bursty -rate 300 -duration 5s
//
// The generator is open loop: arrivals follow their absolute schedule
// regardless of server progress, and arrivals past the in-flight cap
// are shed, never queued at the generator. Latencies are measured
// from the scheduled arrival instant, so stalls are charged to every
// request scheduled during them (no coordinated omission).
//
// Exit status is nonzero on configuration errors or when any request
// fails verification against the sequential reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"bots/internal/core"
	"bots/internal/obs"
	"bots/internal/obs/obshttp"
	"bots/internal/serve"
)

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// errVerify marks a run in which requests failed verification.
var errVerify = errors.New("requests failed verification")

// exitCode reports err on stderr and maps it to the exit status: 0
// on success or -h, 1 when requests failed verification, 2 on any
// other error.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "botserve:", err)
	if errors.Is(err, errVerify) {
		return 1
	}
	return 2
}

// run is the driver. The load generator has no point at which it
// could stop early, so ctx goes unread and Ctrl-C keeps its default
// effect. A -metrics-addr listener lives as long as run.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("botserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "health", "service workload: "+strings.Join(serve.WorkloadNames(), ", "))
		class     = fs.String("class", "test", "input class (test/small/medium/large)")
		scheduler = fs.String("scheduler", "", "omp scheduler name (empty = default)")
		cutoff    = fs.Int("cutoff", -1, "workload cutoff knob (-1 = workload default)")
		workers   = fs.Int("workers", 0, "persistent-team size (0 = GOMAXPROCS)")
		rate      = fs.Float64("rate", 100, "target mean arrival rate, requests/s")
		arrivals  = fs.String("arrivals", "poisson", "arrival process: poisson, fixed, bursty")
		duration  = fs.Duration("duration", 2*time.Second, "generation window (fixed-duration mode)")
		requests  = fs.Int("requests", 0, "fixed-request mode when > 0 (overrides -duration)")
		inflight  = fs.Int("max-inflight", 0, "admission cap before shedding (0 = 64×workers)")
		seed      = fs.Uint64("seed", 1, "arrival-process RNG seed")
		asJSON    = fs.Bool("json", false, "emit the bots-serve/v1 report as JSON on stdout")
		metrics   = fs.String("metrics-addr", "", "listen address for GET /metrics + pprof + /debug/flightrec (empty = off)")
		frCap     = fs.Int("flight-recorder", 0, "per-worker scheduler-event ring size (0 = off; implied 4096 when -metrics-addr is set)")
		stallThr  = fs.Duration("stall-threshold", time.Second, "dump the flight recorder when live tasks sit unclaimed with all workers parked this long (needs -flight-recorder)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cls, err := core.ParseClass(*class)
	if err != nil {
		return err
	}

	cfg := serve.Config{
		Bench:             *bench,
		Class:             cls,
		Scheduler:         *scheduler,
		Cutoff:            *cutoff,
		Workers:           *workers,
		Rate:              *rate,
		Arrivals:          *arrivals,
		Duration:          *duration,
		Requests:          *requests,
		MaxInflight:       *inflight,
		Seed:              *seed,
		FlightRecorderCap: *frCap,
	}
	var flightRec atomic.Pointer[obs.FlightRecorder]
	if *metrics != "" {
		// The metrics listener observes the run live: the serve layer
		// registers its request counters/histograms and the team's
		// gauges into the registry, and the flight recorder (enabled
		// implicitly here) is dumpable at /debug/flightrec and dumped
		// to stderr automatically if the stall detector fires.
		cfg.Obs = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(cfg.Obs)
		if cfg.FlightRecorderCap <= 0 {
			cfg.FlightRecorderCap = 4096
		}
		mux := http.NewServeMux()
		obshttp.Mount(mux, cfg.Obs)
		mux.HandleFunc("GET /debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
			fr := flightRec.Load()
			if fr == nil {
				http.Error(w, "flight recorder not attached", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fr.WriteJSON(w)
		})
		// Bound before the run starts, so a scrape racing it gets a
		// connection, not a refusal.
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "botserve: metrics on http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: mux}
		served := make(chan struct{})
		go func() { srv.Serve(ln); close(served) }()
		defer func() { srv.Close(); <-served }()
	}
	if cfg.FlightRecorderCap > 0 {
		cfg.OnRecorder = func(fr *obs.FlightRecorder) { flightRec.Store(fr) }
		if *stallThr > 0 {
			cfg.StallThreshold = *stallThr
			cfg.OnStall = func(fr *obs.FlightRecorder) {
				fmt.Fprintf(stderr, "botserve: stall detected (live tasks with all workers parked > %v); flight-recorder dump:\n", *stallThr)
				fr.WriteJSON(stderr)
			}
		}
	}

	rep, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	if err := rep.Validate(); err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(stdout, rep)
	}
	if rep.VerifyFailures > 0 {
		return fmt.Errorf("%d %w", rep.VerifyFailures, errVerify)
	}
	return nil
}

func printReport(stdout io.Writer, r *serve.Report) {
	fmt.Fprintf(stdout, "botserve: %s/%s scheduler=%s arrivals=%s workers=%d\n",
		r.Bench, r.Class, r.Scheduler, r.Arrivals, r.Workers)
	fmt.Fprintf(stdout, "  offered %.1f/s (target %.1f/s), completed %d, shed %d, throughput %.1f/s, elapsed %v\n",
		r.OfferedHz, r.RateHz, r.Completed, r.Shed, r.ThroughputHz, time.Duration(r.ElapsedNS).Round(time.Millisecond))
	if r.VerifyFailures > 0 {
		fmt.Fprintf(stdout, "  VERIFY FAILURES: %d\n", r.VerifyFailures)
	}
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  latency\tp50\tp90\tp99\tp999\tmax\tmean")
	for _, row := range []struct {
		name string
		s    serve.LatencyStats
	}{{"queueing", r.Queueing}, {"service", r.Service}, {"total", r.Total}} {
		fmt.Fprintf(w, "  %s\t%v\t%v\t%v\t%v\t%v\t%v\n", row.name,
			ms(row.s.P50), ms(row.s.P90), ms(row.s.P99), ms(row.s.P999), ms(row.s.Max), ms(row.s.Mean))
	}
	w.Flush()
	fmt.Fprintf(stdout, "  runtime: %d tasks, %d steals, %d parks\n",
		r.Runtime.TasksCreated, r.Runtime.TasksStolen, r.Runtime.IdleParks)
}

func ms(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
