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
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"bots/internal/core"
	"bots/internal/obs"
	"bots/internal/serve"
)

func main() {
	var (
		bench     = flag.String("bench", "health", "service workload: "+strings.Join(serve.WorkloadNames(), ", "))
		class     = flag.String("class", "test", "input class (test/small/medium/large)")
		scheduler = flag.String("scheduler", "", "omp scheduler name (empty = default)")
		cutoff    = flag.Int("cutoff", -1, "workload cutoff knob (-1 = workload default)")
		workers   = flag.Int("workers", 0, "persistent-team size (0 = GOMAXPROCS)")
		rate      = flag.Float64("rate", 100, "target mean arrival rate, requests/s")
		arrivals  = flag.String("arrivals", "poisson", "arrival process: poisson, fixed, bursty")
		duration  = flag.Duration("duration", 2*time.Second, "generation window (fixed-duration mode)")
		requests  = flag.Int("requests", 0, "fixed-request mode when > 0 (overrides -duration)")
		inflight  = flag.Int("max-inflight", 0, "admission cap before shedding (0 = 64×workers)")
		seed      = flag.Uint64("seed", 1, "arrival-process RNG seed")
		asJSON    = flag.Bool("json", false, "emit the bots-serve/v1 report as JSON on stdout")
		metrics   = flag.String("metrics-addr", "", "listen address for GET /metrics + pprof + /debug/flightrec (empty = off)")
		frCap     = flag.Int("flight-recorder", 0, "per-worker scheduler-event ring size (0 = off; implied 4096 when -metrics-addr is set)")
		stallThr  = flag.Duration("stall-threshold", time.Second, "dump the flight recorder when live tasks sit unclaimed with all workers parked this long (needs -flight-recorder)")
	)
	flag.Parse()

	cls, err := core.ParseClass(*class)
	if err != nil {
		fatal(err)
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
		startMetricsListener(*metrics, cfg.Obs, flightRec.Load)
	}
	if cfg.FlightRecorderCap > 0 {
		cfg.OnRecorder = func(fr *obs.FlightRecorder) { flightRec.Store(fr) }
		if *stallThr > 0 {
			cfg.StallThreshold = *stallThr
			cfg.OnStall = func(fr *obs.FlightRecorder) {
				fmt.Fprintf(os.Stderr, "botserve: stall detected (live tasks with all workers parked > %v); flight-recorder dump:\n", *stallThr)
				fr.WriteJSON(os.Stderr)
			}
		}
	}

	rep, err := serve.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := rep.Validate(); err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		printReport(rep)
	}
	if rep.VerifyFailures > 0 {
		fmt.Fprintf(os.Stderr, "botserve: %d requests failed verification\n", rep.VerifyFailures)
		os.Exit(1)
	}
}

func printReport(r *serve.Report) {
	fmt.Printf("botserve: %s/%s scheduler=%s arrivals=%s workers=%d\n",
		r.Bench, r.Class, r.Scheduler, r.Arrivals, r.Workers)
	fmt.Printf("  offered %.1f/s (target %.1f/s), completed %d, shed %d, throughput %.1f/s, elapsed %v\n",
		r.OfferedHz, r.RateHz, r.Completed, r.Shed, r.ThroughputHz, time.Duration(r.ElapsedNS).Round(time.Millisecond))
	if r.VerifyFailures > 0 {
		fmt.Printf("  VERIFY FAILURES: %d\n", r.VerifyFailures)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  latency\tp50\tp90\tp99\tp999\tmax\tmean")
	for _, row := range []struct {
		name string
		s    serve.LatencyStats
	}{{"queueing", r.Queueing}, {"service", r.Service}, {"total", r.Total}} {
		fmt.Fprintf(w, "  %s\t%v\t%v\t%v\t%v\t%v\t%v\n", row.name,
			ms(row.s.P50), ms(row.s.P90), ms(row.s.P99), ms(row.s.P999), ms(row.s.Max), ms(row.s.Mean))
	}
	w.Flush()
	fmt.Printf("  runtime: %d tasks, %d steals, %d parks\n",
		r.Runtime.TasksCreated, r.Runtime.TasksStolen, r.Runtime.IdleParks)
}

func ms(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// startMetricsListener binds the observability endpoint immediately
// (so a scrape racing process startup gets a connection, not a
// refusal) and serves it for the life of the process:
//
//	GET /metrics           Prometheus text exposition of reg
//	GET /debug/flightrec   bots-flightrec/v2 JSON dump (404 until the
//	                       run attaches its recorder)
//	GET /debug/pprof/...   net/http/pprof profiles
func startMetricsListener(addr string, reg *obs.Registry, getFR func() *obs.FlightRecorder) {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		fr := getFR()
		if fr == nil {
			http.Error(w, "flight recorder not attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fr.WriteJSON(w)
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	go http.Serve(ln, mux)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "botserve:", err)
	os.Exit(2)
}
