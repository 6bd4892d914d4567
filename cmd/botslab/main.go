// Command botslab is the experiment-lab driver: it expands
// declarative sweep manifests over the suite's configuration axes,
// runs the cells on a bounded worker pool with a persistent
// content-addressed result store, and serves the whole thing over
// HTTP (`bots serve`-style).
//
// One-shot sweep (batch measurement):
//
//	botslab -manifest examples/manifests/ci-smoke.json -store /tmp/lab.jsonl
//
// HTTP service:
//
//	botslab -serve :8080 -store bots-lab.jsonl
//	curl -X POST localhost:8080/sweeps -d @examples/manifests/ci-smoke.json
//	curl localhost:8080/sweeps/s1                 # status
//	curl localhost:8080/sweeps/s1?follow=true     # NDJSON progress stream
//	curl -X DELETE localhost:8080/sweeps/s1       # cancel
//	curl 'localhost:8080/results?bench=fib&threads=2'
//	curl 'localhost:8080/report/fig4?class=test&threads=1,2,4'
//
// Fleet coordinator (distributed sweeps; pair with cmd/botsd):
//
//	botslab -serve :8080 -fleet -store bots-lab.jsonl
//	botsd -coordinator http://host:8080 &          # on each worker box
//	curl localhost:8080/workers                    # fleet status
//
// With -fleet, sweep cells that miss the cache are leased out to
// registered botsd workers instead of executing in-process; the store
// contract is unchanged (hits still short-circuit locally), so
// `-fleet -manifest` transparently fans a sweep across the fleet.
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
	"sync"
	"syscall"
	"time"

	_ "bots/internal/apps/all"
	"bots/internal/cli"
	"bots/internal/lab"
	"bots/internal/obs"
	"bots/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(exitCode(err, os.Stderr))
}

var exitCode = cli.ExitCode("botslab")

// run is the driver. Cancelling ctx cancels a -manifest sweep, or
// ends -serve: either way run stops the listener and every unfinished
// sweep before it returns, with the journal closed first, so a
// restart on it resumes them as it would after a crash.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("botslab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storePath   = fs.String("store", "bots-lab.jsonl", "lab result store (JSONL); empty = in-memory only")
		manifest    = fs.String("manifest", "", "sweep manifest to run to completion")
		serve       = fs.String("serve", "", "address to serve the lab HTTP API on (e.g. :8080); empty = run the manifest and exit")
		workers     = fs.Int("workers", 0, "dispatcher worker-pool size (0 = NumCPU locally, 64 with -fleet)")
		retries     = fs.Int("retries", 2, "per-job retries after a failure (with -fleet, a failed or lost lease is one)")
		progress    = fs.Bool("progress", true, "print per-job progress lines for -manifest sweeps")
		fleet       = fs.Bool("fleet", false, "dispatch cache misses to registered botsd workers instead of executing in-process (requires -serve)")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "fleet lease lifetime without a heartbeat")
		journalPath = fs.String("journal", "", "fleet write-ahead journal for coordinator crash recovery (default <store>.journal with -fleet; 'off' disables)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	if *manifest == "" && *serve == "" {
		return fmt.Errorf("%w: nothing to do: pass -manifest and/or -serve; see -h", cli.ErrUsage)
	}
	if *fleet && *serve == "" {
		return fmt.Errorf("%w: -fleet needs -serve: workers lease jobs over the HTTP API", cli.ErrUsage)
	}

	store, err := lab.OpenStore(*storePath)
	if err != nil {
		return err
	}
	defer store.Close()
	if rep := store.TornTail(); rep != nil {
		fmt.Fprintf(stderr, "botslab: store %s recovered from a crash: %s\n", *storePath, rep.Reason)
	}

	// The write-ahead journal makes a -fleet coordinator restartable:
	// it records sweep submissions and terminal cell outcomes, and a
	// fresh process replays it to resubmit whatever never finished.
	var journal *lab.Journal
	var recovery *lab.Recovery
	jPath := *journalPath
	if jPath == "" && *fleet && *storePath != "" {
		jPath = *storePath + ".journal"
	}
	if jPath != "" && jPath != "off" {
		if journal, recovery, err = lab.OpenJournal(jPath); err != nil {
			return err
		}
	}

	// The runner chain decides where a cache miss executes: in-process
	// (DirectRunner) or leased out to the fleet (RemoteRunner). Either
	// way CachedRunner short-circuits hits from the shared store first.
	var coord *lab.Fleet
	var next lab.Runner
	direct := lab.NewDirectRunner()
	poolSize := *workers
	if *fleet {
		coord = lab.NewFleet(lab.FleetConfig{
			LeaseTTL: *leaseTTL,
			Store:    store,
			Journal:  journal,
		})
		defer coord.Close()
		next = lab.NewRemoteRunner(coord)
		if poolSize == 0 {
			// Fleet dispatch is blocking-wait, not CPU work: size the
			// pool for fan-out, not for cores.
			poolSize = 64
		}
	} else {
		next = direct
		if poolSize == 0 {
			poolSize = runtime.NumCPU()
		}
	}
	runner := lab.NewCachedRunner(store, next)
	disp := lab.NewDispatcher(runner, poolSize, *retries)
	disp.Journal = journal
	defer func() {
		journal.Close()
		disp.Close()
	}()

	if recovery != nil && recovery.Events > 0 {
		fmt.Fprintf(stderr, "botslab: journal %s replayed %d events (%d grants, %d completions)\n",
			jPath, recovery.Events, recovery.Grants, recovery.Completions)
	}
	if recovery != nil {
		sweeps, cells, err := disp.Resume(recovery)
		if err != nil {
			return err
		}
		if sweeps > 0 {
			fmt.Fprintf(stderr, "botslab: resumed %d unfinished sweep(s), %d cell(s) resubmitted\n", sweeps, cells)
		}
	}

	// The server starts before any -manifest run: a fleet sweep needs
	// the registration/lease endpoints up so workers can join, and a
	// watcher can follow the sweep while it runs.
	served := make(chan error, 1)
	if *serve != "" {
		server := &lab.Server{
			Disp:   disp,
			Store:  store,
			Fleet:  coord,
			Render: report.RenderFuncFor(runner),
			// The process-wide registry behind GET /metrics; the server
			// adds its bots_lab_* gauges on Handler construction.
			Obs: obs.NewRegistry(),
		}
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		mode := "local"
		if *fleet {
			mode = "fleet"
		}
		fmt.Fprintf(stderr, "botslab: serving on %s (%s mode, store %s, %d records; /metrics + pprof mounted)\n",
			ln.Addr(), mode, *storePath, store.Len())
		srv := &http.Server{Handler: server.Handler()}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); served <- srv.Serve(ln) }()
		defer func() { srv.Close(); wg.Wait() }()
	}

	if *manifest != "" {
		f, err := os.Open(*manifest)
		if err != nil {
			return err
		}
		spec, err := lab.ReadSweepSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		if *progress {
			disp.OnProgress = func(ev lab.ProgressEvent) {
				fmt.Fprintf(stderr, "botslab: %s %-7s %s %s/%s class=%s threads=%d attempt=%d %s\n",
					ev.SweepID, ev.Job.Status, ev.Job.Key, ev.Job.Spec.Bench, ev.Job.Spec.Version,
					ev.Job.Spec.Class, ev.Job.Spec.Threads, ev.Job.Attempts, ev.Job.Error)
			}
		}
		sw, err := disp.Submit(spec)
		if err != nil {
			return err
		}
		select {
		case <-sw.Done():
		case <-ctx.Done():
			return fmt.Errorf("sweep %s interrupted", sw.ID())
		}
		st := sw.Status()
		fmt.Fprintf(stdout, "sweep %s (%s): %d jobs, %d done, %d failed; %d cache hits, %d executions; store=%d records\n",
			st.ID, st.Name, st.Total, st.Done, st.Failed, runner.Hits(), direct.Exec.Executions(), store.Len())
		for _, j := range st.Jobs {
			if j.Status == lab.JobFailed {
				fmt.Fprintf(stderr, "botslab: failed %s %s/%s: %s\n", j.Key, j.Spec.Bench, j.Spec.Version, j.Error)
			}
		}
		if st.Failed > 0 && *serve == "" {
			return fmt.Errorf("%d of %d jobs failed", st.Failed, st.Total)
		}
	}

	if *serve != "" {
		select {
		case <-ctx.Done():
		case err := <-served:
			return err
		}
	}
	return nil
}
