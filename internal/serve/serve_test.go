package serve

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bots/internal/core"
	"bots/internal/obs"
	"bots/internal/omp"
)

// The histogram bucket/quantile tests moved with the histogram to
// internal/obs (TestHistBuckets, TestHistQuantiles); this package
// keeps only the serve-specific uses of it.

// TestArrivalProcesses draws many gaps from each process and checks
// the realized mean rate against the target.
func TestArrivalProcesses(t *testing.T) {
	const rate = 1000.0
	for _, proc := range []string{ArrivalPoisson, ArrivalFixed, ArrivalBursty} {
		gen := newArrivals(Config{Rate: rate, Arrivals: proc, Seed: 7,
			BurstFactor: 4, BurstDwell: 50 * time.Millisecond})
		const n = 20000
		var total time.Duration
		for i := 0; i < n; i++ {
			g := gen.next()
			if g < 0 {
				t.Fatalf("%s: negative gap %v", proc, g)
			}
			total += g
		}
		realized := n / total.Seconds()
		// Poisson/fixed should sit on the target; the bursty envelope
		// oscillates around it (mean ≈ rate×(f+1/f)/2 per dwell mix),
		// so only bound it loosely.
		lo, hi := 0.9*rate, 1.1*rate
		if proc == ArrivalBursty {
			lo, hi = 0.3*rate, 4*rate
		}
		if realized < lo || realized > hi {
			t.Errorf("%s: realized rate %.1f/s outside [%.0f, %.0f]", proc, realized, lo, hi)
		}
	}
}

// TestOpenLoopProperty is the defining test of the generator: with a
// server that completes nothing (bodies block until released), an
// open-loop generator must keep admitting on schedule until the
// in-flight cap, then shed — it must never slow down to the server's
// pace. A closed-loop generator would stall at the first request.
func TestOpenLoopProperty(t *testing.T) {
	const (
		workers = 2
		cap     = 8
		rate    = 2000.0
	)
	release := make(chan struct{})
	var started atomic.Int64
	pt := omp.NewPersistentTeam(workers, omp.WithScheduler(omp.DefaultScheduler))

	var inflight atomic.Int64
	var submitted, shed int64
	gen := newArrivals(Config{Rate: rate, Arrivals: ArrivalPoisson, Seed: 3})
	begin := time.Now()
	deadline := begin.Add(300 * time.Millisecond)
	next := begin.Add(gen.next())
	for next.Before(deadline) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if inflight.Load() >= cap {
			shed++
		} else {
			inflight.Add(1)
			submitted++
			pt.SubmitDetached(func(c *omp.Context) {
				started.Add(1)
				<-release
			}, func() { inflight.Add(-1) })
		}
		next = next.Add(gen.next())
	}
	if submitted != cap {
		t.Errorf("submitted = %d, want exactly the in-flight cap %d", submitted, cap)
	}
	// ~600 arrivals were scheduled; all but the cap must be shed, not
	// deferred: the generator never blocked on the stuck server.
	if shed < 300 {
		t.Errorf("shed = %d, want hundreds (generator must not slow to server pace)", shed)
	}
	close(release)
	pt.Drain()
	pt.Close()
	if got := started.Load(); got != int64(submitted) {
		t.Errorf("started %d of %d admitted requests", got, submitted)
	}
}

// TestRunHealth runs the acceptance-shaped configuration (health,
// workfirst) in fixed-request mode and validates the report.
func TestRunHealth(t *testing.T) {
	rep, err := Run(Config{
		Bench:     "health",
		Class:     core.Test,
		Scheduler: "workfirst",
		Cutoff:    -1,
		Workers:   2,
		Rate:      2000,
		Requests:  60,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Submitted+rep.Shed != 60 {
		t.Errorf("arrivals = %d + %d shed, want 60 total", rep.Submitted, rep.Shed)
	}
	if rep.VerifyFailures != 0 {
		t.Errorf("verify failures = %d", rep.VerifyFailures)
	}
	if rep.Runtime.TasksCreated == 0 {
		t.Errorf("runtime stats empty: %+v", rep.Runtime)
	}
	if rep.ThroughputHz <= 0 || rep.OfferedHz <= 0 {
		t.Errorf("rates not positive: offered %.1f throughput %.1f", rep.OfferedHz, rep.ThroughputHz)
	}
}

// TestRunShedsNothingAtCalibratedLoad is the absolute shed ceiling: a
// health test-class request costs well under a millisecond, so 200
// requests/s on four workers is a small fraction of capacity on any
// host, and shedding even one request there means the admission
// accounting leaks. Every request must also verify.
func TestRunShedsNothingAtCalibratedLoad(t *testing.T) {
	rep, err := Run(Config{
		Bench:     "health",
		Class:     core.Test,
		Scheduler: omp.DefaultScheduler,
		Cutoff:    -1,
		Workers:   4,
		Rate:      200,
		Requests:  120,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 {
		t.Errorf("shed %d of %d requests at 200/s, want 0", rep.Shed, rep.Submitted+rep.Shed)
	}
	if rep.VerifyFailures != 0 {
		t.Errorf("verify failures = %d, want 0", rep.VerifyFailures)
	}
}

// TestRunAllWorkloads runs every registered workload briefly on every
// registered scheduler, checking verification end to end.
func TestRunAllWorkloads(t *testing.T) {
	for _, bench := range WorkloadNames() {
		for _, sched := range omp.Schedulers() {
			rep, err := Run(Config{
				Bench:     bench,
				Class:     core.Test,
				Scheduler: sched,
				Cutoff:    -1,
				Workers:   2,
				Rate:      500,
				Requests:  8,
				Seed:      5,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, sched, err)
			}
			if err := rep.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", bench, sched, err)
			}
			if rep.VerifyFailures != 0 {
				t.Errorf("%s/%s: %d verification failures", bench, sched, rep.VerifyFailures)
			}
			if rep.Completed == 0 {
				t.Errorf("%s/%s: no requests completed", bench, sched)
			}
		}
	}
}

// TestRunBursty exercises the MMPP arrival path end to end.
func TestRunBursty(t *testing.T) {
	rep, err := Run(Config{
		Bench:      "health",
		Class:      core.Test,
		Arrivals:   ArrivalBursty,
		Workers:    2,
		Rate:       1000,
		Requests:   40,
		Seed:       9,
		BurstDwell: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadConfig covers the validation paths.
func TestRunRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Bench: "nope", Rate: 1, Requests: 1},
		{Bench: "health", Rate: 0, Requests: 1},
		{Bench: "health", Rate: 1},
		{Bench: "health", Rate: 1, Requests: 1, Scheduler: "nope"},
		{Bench: "health", Rate: 1, Requests: 1, Arrivals: "nope"},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// TestQueueingFromScheduledTime checks the coordinated-omission
// convention: with a fixed schedule and a deliberately stalled first
// request, later requests' queueing delay is charged from their
// scheduled arrival even though they were admitted late.
func TestQueueingFromScheduledTime(t *testing.T) {
	var h obs.Histogram
	sched := time.Now()
	// Simulate: request scheduled at t0, but only started 10ms later.
	start := sched.Add(10 * time.Millisecond)
	h.Record(start.Sub(sched))
	s := h.Summary()
	if s.Max < int64(9*time.Millisecond) {
		t.Fatalf("queueing max %v does not reflect the stall", time.Duration(s.Max))
	}
	if math.IsNaN(float64(s.Mean)) || s.Mean <= 0 {
		t.Fatalf("mean = %d", s.Mean)
	}
}

// TestRunWithObs runs with a registry (and flight recorder) attached
// and checks the post-run scrape agrees with the report: request
// counters match, histograms carry the completions, quantile gauges
// render, and the team series are present.
func TestRunWithObs(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := Run(Config{
		Bench:             "health",
		Class:             core.Test,
		Workers:           2,
		Rate:              2000,
		Requests:          40,
		Seed:              21,
		Obs:               reg,
		FlightRecorderCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"bots_serve_requests_total " + itoa(rep.Submitted),
		"bots_serve_shed_total " + itoa(rep.Shed),
		"bots_serve_completed_total " + itoa(rep.Completed),
		"bots_serve_total_seconds_count " + itoa(rep.Completed),
		`bots_serve_total_latency_seconds{quantile="0.5"}`,
		`bots_serve_total_latency_seconds{quantile="0.999"}`,
		"bots_team_workers 2",
		"# TYPE bots_serve_queueing_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
