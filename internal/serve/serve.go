// Package serve is the service-mode subsystem: it drives BOTS task
// DAGs as requests against a persistent omp team under an open-loop
// load generator and measures tail latency.
//
// Open-loop means arrivals follow an absolute schedule fixed by the
// arrival process alone — a slow server does not slow the generator
// down, it just grows the backlog. Queueing delay is therefore
// measured from the *scheduled* arrival time, which is exactly the
// coordinated-omission-free convention: a stall inflates the recorded
// latency of every request scheduled during it. When the in-flight
// cap is reached, arrivals are shed (counted, never blocked) so the
// generator keeps its schedule even under overload.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/obs"
	"bots/internal/omp"
)

// LatencyStats is the serialized latency summary; it is the shared
// obs.LatencyStats (the histogram itself moved to internal/obs in the
// observability PR), aliased so the report schema and its consumers
// are unchanged.
type LatencyStats = obs.LatencyStats

// Schema identifies the serve-report JSON layout.
const Schema = "bots-serve/v1"

// Arrival processes for the open-loop generator.
const (
	ArrivalPoisson = "poisson" // exponential inter-arrivals at Rate
	ArrivalFixed   = "fixed"   // deterministic 1/Rate spacing
	ArrivalBursty  = "bursty"  // 2-state MMPP: Rate×f / Rate÷f phases
)

// Config parameterizes one service run.
type Config struct {
	Bench     string        // workload name (see WorkloadNames)
	Class     core.Class    // input class for the workload
	Scheduler string        // omp scheduler name ("" = default)
	Cutoff    int           // workload cutoff knob (<0 = default)
	Workers   int           // team size (<=0 = GOMAXPROCS)
	Rate      float64       // target mean arrival rate, requests/s
	Arrivals  string        // arrival process ("" = poisson)
	Duration  time.Duration // generation window (fixed-duration mode)
	Requests  int           // fixed-request mode when > 0 (overrides Duration)
	// MaxInflight caps concurrently admitted requests; arrivals beyond
	// the cap are shed. <=0 selects 64×workers.
	MaxInflight int
	Seed        uint64  // RNG seed for arrival draws (0 = 1)
	BurstFactor float64 // bursty: rate multiplier/divisor (<=1 = 4)
	// BurstDwell is the mean dwell time per MMPP state (0 = 100ms).
	BurstDwell time.Duration

	// Obs, when non-nil, receives the run's live metrics: request
	// counters and latency histograms under bots_serve_*, plus the
	// team's bots_team_* gauges/counters (see DESIGN.md §11). The
	// registered closures read state owned by this run, so use a fresh
	// registry per run (a reused one panics on duplicate series).
	Obs *obs.Registry
	// FlightRecorderCap, when > 0, attaches a flight recorder keeping
	// that many events per worker.
	FlightRecorderCap int
	// OnRecorder, when non-nil, is called once at run start with the
	// attached flight recorder (only when FlightRecorderCap > 0), so a
	// driver can expose on-demand dumps while the run is live.
	OnRecorder func(*obs.FlightRecorder)
	// StallThreshold, when > 0 (and a flight recorder is attached),
	// arms the stall detector: OnStall fires with the recorder when
	// live tasks sit unclaimed with every worker parked beyond the
	// threshold.
	StallThreshold time.Duration
	OnStall        func(*obs.FlightRecorder)
}

// Report is the serialized outcome of one service run.
type Report struct {
	Schema    string    `json:"schema"`
	CreatedAt time.Time `json:"created_at"`

	Bench     string  `json:"bench"`
	Class     string  `json:"class"`
	Scheduler string  `json:"scheduler"`
	Arrivals  string  `json:"arrivals"`
	Workers   int     `json:"workers"`
	Cutoff    int     `json:"cutoff"`
	RateHz    float64 `json:"rate_hz"`

	ElapsedNS int64 `json:"elapsed_ns"` // generation window start → full drain

	Submitted      int64 `json:"submitted"`
	Completed      int64 `json:"completed"`
	Shed           int64 `json:"shed"`
	VerifyFailures int64 `json:"verify_failures"`

	// OfferedHz is the realized arrival rate (admitted + shed over the
	// generation window); ThroughputHz is completions over the full
	// elapsed time including drain.
	OfferedHz    float64 `json:"offered_hz"`
	ThroughputHz float64 `json:"throughput_hz"`

	Queueing LatencyStats `json:"queueing"` // scheduled arrival → root task start
	Service  LatencyStats `json:"service"`  // root task start → DAG complete
	Total    LatencyStats `json:"total"`    // scheduled arrival → DAG complete

	Runtime omp.Stats `json:"runtime"` // team counters over the whole run
}

// Validate checks structural sanity of a report: accounting balances
// and monotone latency quantiles. TestEveryScheduler (cmd/botserve)
// asserts the same properties from the JSON side.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("serve: schema %q, want %q", r.Schema, Schema)
	}
	if r.Completed != r.Submitted {
		return fmt.Errorf("serve: completed %d != submitted %d", r.Completed, r.Submitted)
	}
	for _, ls := range []struct {
		name string
		s    LatencyStats
	}{{"queueing", r.Queueing}, {"service", r.Service}, {"total", r.Total}} {
		s := ls.s
		if s.Count != r.Completed {
			return fmt.Errorf("serve: %s histogram count %d != completed %d", ls.name, s.Count, r.Completed)
		}
		if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
			return fmt.Errorf("serve: %s quantiles not monotone: p50=%d p90=%d p99=%d p999=%d max=%d",
				ls.name, s.P50, s.P90, s.P99, s.P999, s.Max)
		}
	}
	return nil
}

// request is the pooled per-request timing record.
type request struct {
	enq   time.Time // scheduled arrival (not admission) time
	start time.Time // root task began executing
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// Run executes one service run and returns its report.
func Run(cfg Config) (*Report, error) {
	w, err := LookupWorkload(cfg.Bench)
	if err != nil {
		return nil, err
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = omp.DefaultScheduler
	}
	if _, err := omp.NewScheduler(cfg.Scheduler); err != nil {
		return nil, err
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("serve: Rate must be positive")
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("serve: need Requests > 0 or Duration > 0")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64 * cfg.Workers
	}
	if cfg.Arrivals == "" {
		cfg.Arrivals = ArrivalPoisson
	}
	switch cfg.Arrivals {
	case ArrivalPoisson, ArrivalFixed, ArrivalBursty:
	default:
		return nil, fmt.Errorf("serve: unknown arrival process %q", cfg.Arrivals)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.BurstFactor <= 1 {
		cfg.BurstFactor = 4
	}
	if cfg.BurstDwell <= 0 {
		cfg.BurstDwell = 100 * time.Millisecond
	}

	prep, err := w.Prepare(cfg.Class, cfg.Cutoff)
	if err != nil {
		return nil, err
	}

	opts := []omp.TeamOpt{omp.WithScheduler(cfg.Scheduler)}
	var fr *obs.FlightRecorder
	if cfg.FlightRecorderCap > 0 {
		fr = obs.NewFlightRecorder(cfg.Workers, cfg.FlightRecorderCap)
		opts = append(opts, omp.WithFlightRecorder(fr))
		if cfg.OnRecorder != nil {
			cfg.OnRecorder(fr)
		}
	}
	pt := omp.NewPersistentTeam(cfg.Workers, opts...)
	startStats := pt.Stats()

	var (
		qHist, sHist, tHist obs.Histogram
		inflight            atomic.Int64
		completed           atomic.Int64
		verifyFails         atomic.Int64
		submitted, shed     atomic.Int64
	)
	if reg := cfg.Obs; reg != nil {
		registerServeObs(reg, pt, &qHist, &sHist, &tHist,
			&submitted, &shed, &completed, &verifyFails, &inflight)
	}
	if fr != nil && cfg.StallThreshold > 0 && cfg.OnStall != nil {
		onStall, rec := cfg.OnStall, fr
		stop := pt.StartStallMonitor(cfg.StallThreshold, 0, func() { onStall(rec) })
		defer stop()
	}

	gen := newArrivals(cfg)
	begin := time.Now()
	deadline := begin.Add(cfg.Duration)
	next := begin.Add(gen.next()) // first arrival one gap in

	for {
		if cfg.Requests > 0 {
			if submitted.Load()+shed.Load() >= int64(cfg.Requests) {
				break
			}
		} else if !next.Before(deadline) {
			break
		}
		// Open loop: wait for the absolute scheduled instant, never
		// for the server. Late wakeups are not re-spaced — the backlog
		// of due arrivals fires immediately, preserving the schedule.
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if inflight.Load() >= int64(cfg.MaxInflight) {
			shed.Add(1)
		} else {
			inflight.Add(1)
			submitted.Add(1)
			r := requestPool.Get().(*request)
			r.enq = next
			body, verify := prep.NewRequest()
			pt.SubmitDetached(func(c *omp.Context) {
				r.start = time.Now()
				body(c)
				// The adapters join their DAG before returning, so the
				// result is stable here; verification is charged to
				// service time like any other per-request work.
				if !verify() {
					verifyFails.Add(1)
				}
			}, func() {
				end := time.Now()
				qHist.Record(r.start.Sub(r.enq))
				sHist.Record(end.Sub(r.start))
				tHist.Record(end.Sub(r.enq))
				requestPool.Put(r)
				completed.Add(1)
				inflight.Add(-1)
			})
		}
		next = next.Add(gen.next())
	}
	genElapsed := time.Since(begin)

	pt.Drain()
	endStats := pt.Stats()
	pt.Close()
	elapsed := time.Since(begin)

	rep := &Report{
		Schema:         Schema,
		CreatedAt:      time.Now().UTC(),
		Bench:          cfg.Bench,
		Class:          cfg.Class.String(),
		Scheduler:      cfg.Scheduler,
		Arrivals:       cfg.Arrivals,
		Workers:        cfg.Workers,
		Cutoff:         cfg.Cutoff,
		RateHz:         cfg.Rate,
		ElapsedNS:      int64(elapsed),
		Submitted:      submitted.Load(),
		Shed:           shed.Load(),
		Completed:      completed.Load(),
		VerifyFailures: verifyFails.Load(),
		Queueing:       qHist.Summary(),
		Service:        sHist.Summary(),
		Total:          tHist.Summary(),
		Runtime:        endStats.Sub(startStats),
	}
	if genElapsed > 0 {
		rep.OfferedHz = float64(rep.Submitted+rep.Shed) / genElapsed.Seconds()
	}
	if elapsed > 0 {
		rep.ThroughputHz = float64(rep.Completed) / elapsed.Seconds()
	}
	return rep, nil
}

// registerServeObs publishes one run's request-side metrics: sampled
// counters over the run's atomics, the three latency histograms, and
// scrape-time quantile gauges of the total (scheduled-arrival →
// completion) latency. The quantile gauges inherit the histogram's
// max-clamping, so p50 ≤ p90 ≤ p99 ≤ p999 at every scrape —
// TestMetricsScrape (cmd/botserve) asserts that from /metrics.
func registerServeObs(reg *obs.Registry, pt *omp.PersistentTeam,
	qHist, sHist, tHist *obs.Histogram,
	submitted, shed, completed, verifyFails, inflight *atomic.Int64) {
	reg.CounterFunc("bots_serve_requests_total", "Requests admitted to the team.",
		func() float64 { return float64(submitted.Load()) })
	reg.CounterFunc("bots_serve_shed_total", "Arrivals shed at the in-flight cap.",
		func() float64 { return float64(shed.Load()) })
	reg.CounterFunc("bots_serve_completed_total", "Requests whose task DAG completed.",
		func() float64 { return float64(completed.Load()) })
	reg.CounterFunc("bots_serve_verify_failures_total", "Requests whose result failed verification.",
		func() float64 { return float64(verifyFails.Load()) })
	reg.GaugeFunc("bots_serve_inflight", "Requests admitted and not yet completed.",
		func() float64 { return float64(inflight.Load()) })
	reg.RegisterHistogram("bots_serve_queueing_seconds",
		"Scheduled arrival to root-task start (coordinated-omission-free).", qHist)
	reg.RegisterHistogram("bots_serve_service_seconds",
		"Root-task start to DAG completion.", sHist)
	reg.RegisterHistogram("bots_serve_total_seconds",
		"Scheduled arrival to DAG completion.", tHist)
	for _, q := range []struct {
		v float64
		s string
	}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {0.999, "0.999"}} {
		q := q
		reg.GaugeFunc("bots_serve_total_latency_seconds",
			"Total-latency quantile sampled at scrape time (seconds).",
			func() float64 { return float64(tHist.Quantile(q.v)) / 1e9 },
			obs.Label{Name: "quantile", Value: q.s})
	}
	pt.RegisterObs(reg)
}

// arrivals draws inter-arrival gaps for the configured process.
type arrivals struct {
	cfg Config
	rng *inputs.RNG

	// bursty (2-state MMPP) state: current rate and scheduled-time
	// budget left in the current dwell.
	burstHigh bool
	dwellLeft time.Duration
}

func newArrivals(cfg Config) *arrivals {
	return &arrivals{cfg: cfg, rng: inputs.NewRNG(cfg.Seed)}
}

// exp draws an exponential variate with the given mean rate (per
// second), as a duration.
func (a *arrivals) exp(rate float64) time.Duration {
	u := a.rng.Float64()
	for u == 0 {
		u = a.rng.Float64()
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}

func (a *arrivals) next() time.Duration {
	switch a.cfg.Arrivals {
	case ArrivalFixed:
		return time.Duration(float64(time.Second) / a.cfg.Rate)
	case ArrivalBursty:
		// Modulate in scheduled time: each state dwells an
		// exponential span of the arrival schedule, alternating
		// Rate×f and Rate÷f. Equal expected dwell in both states
		// means the offered mean sits slightly above Rate — the
		// report's offered_hz records the realized value.
		if a.dwellLeft <= 0 {
			a.burstHigh = !a.burstHigh
			a.dwellLeft = a.exp(1 / a.cfg.BurstDwell.Seconds())
		}
		rate := a.cfg.Rate / a.cfg.BurstFactor
		if a.burstHigh {
			rate = a.cfg.Rate * a.cfg.BurstFactor
		}
		gap := a.exp(rate)
		a.dwellLeft -= gap
		return gap
	default: // ArrivalPoisson
		return a.exp(a.cfg.Rate)
	}
}
