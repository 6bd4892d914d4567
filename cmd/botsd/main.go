// Command botsd is the fleet worker daemon: it registers with a
// botslab coordinator (started with -fleet), leases sweep cells over
// HTTP, executes them through the same lab Executor an in-process run
// uses, heartbeats while measuring, and ships the finished Records
// back. Several botsd processes — on one box or many — turn one
// botslab sweep into a distributed run with no manifest changes.
//
//	botslab -serve :8080 -fleet -store bots-lab.jsonl &
//	botsd -coordinator http://localhost:8080 -capacity 4
//
// SIGTERM/SIGINT drains gracefully: the daemon stops taking leases,
// finishes what it holds, delivers those results, deregisters, and
// exits 0. A coordinator that is not up yet is retried with backoff
// (-startup-retries); SIGTERM during that wait also exits 0.
//
// The -chaos-* flags route the daemon's coordinator traffic through
// the internal/chaos fault injector (DESIGN.md §14) — deterministic,
// seeded latency and drops for resilience experiments:
//
//	botsd -coordinator http://host:8080 \
//	  -chaos-latency 500ms -chaos-jitter 150ms -chaos-drop 0.1 -chaos-seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "bots/internal/apps/all"
	"bots/internal/chaos"
	"bots/internal/cli"
	"bots/internal/lab"
	"bots/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(exitCode(err, os.Stderr))
}

var exitCode = cli.ExitCode("botsd")

// run is the daemon. Cancelling ctx drains it; run returns once the
// worker has deregistered and the metrics listener has stopped.
func run(ctx context.Context, args []string, _, stderr io.Writer) error {
	defaultName, _ := os.Hostname()
	if defaultName == "" {
		defaultName = "botsd"
	}
	fs := flag.NewFlagSet("botsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator    = fs.String("coordinator", "http://localhost:8080", "botslab coordinator base URL")
		name           = fs.String("name", fmt.Sprintf("%s-%d", defaultName, os.Getpid()), "worker name recorded in result provenance")
		capacity       = fs.Int("capacity", runtime.NumCPU(), "max concurrently executing leases")
		poll           = fs.Duration("poll", 250*time.Millisecond, "idle lease-poll interval")
		requestTimeout = fs.Duration("request-timeout", 5*time.Second, "per-request coordinator timeout")
		wireRetries    = fs.Int("wire-retries", 2, "retries per coordinator request on transport errors and 5xx (never 4xx); 0 disables")
		startupRetries = fs.Int("startup-retries", 5, "registration retries (with backoff) while the coordinator is unreachable at startup")
		metricsAddr    = fs.String("metrics-addr", "", "address to serve /metrics on (e.g. :9091); empty = no metrics endpoint")

		chaosLatency = fs.Duration("chaos-latency", 0, "inject this base latency into every coordinator request")
		chaosJitter  = fs.Duration("chaos-jitter", 0, "uniform ± jitter on the injected latency")
		chaosDrop    = fs.Float64("chaos-drop", 0, "probability [0,1] a coordinator request or response is dropped")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed for the chaos injector's deterministic fault sequence")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "botsd[%s]: %s\n", *name, fmt.Sprintf(format, args...))
	}
	// A transport of its own, so no idle coordinator connection
	// outlives run.
	wire := http.DefaultTransport.(*http.Transport).Clone()
	defer wire.CloseIdleConnections()
	// WorkerClient reads a zero WireRetries as its default; a negative
	// one is how it says none.
	retries := *wireRetries
	if retries == 0 {
		retries = -1
	}
	w := &lab.WorkerClient{
		Coordinator:    *coordinator,
		Name:           *name,
		Capacity:       *capacity,
		Poll:           *poll,
		RequestTimeout: *requestTimeout,
		WireRetries:    retries,
		StartupRetries: *startupRetries,
		Client:         &http.Client{Transport: wire},
		Logf:           logf,
	}

	if *chaosLatency > 0 || *chaosJitter > 0 || *chaosDrop > 0 {
		inj := chaos.New(chaos.Config{
			Seed:     *chaosSeed,
			Latency:  *chaosLatency,
			Jitter:   *chaosJitter,
			DropRate: *chaosDrop,
		})
		w.Client = &http.Client{Transport: inj.Transport(wire)}
		logf("chaos wire enabled: latency=%s±%s drop=%.2f seed=%d", *chaosLatency, *chaosJitter, *chaosDrop, *chaosSeed)
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		w.RegisterObs(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		logf("metrics on http://%s/metrics", ln.Addr())
		srv := &http.Server{Handler: mux}
		served := make(chan struct{})
		go func() { srv.Serve(ln); close(served) }()
		defer func() { srv.Close(); <-served }()
	}

	return w.Run(ctx)
}
