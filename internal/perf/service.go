package perf

import (
	"fmt"
	"testing"

	"bots/internal/core"
	"bots/internal/omp"
	"bots/internal/serve"
)

// shedWorkers is the persistent-team size of the calibrated shed run.
const shedWorkers = 4

// serviceMetrics measures the service-mode subsystem (internal/serve
// on a persistent team) through two gated counts: steady-state
// allocations per persistent-team submission (the serve hot path —
// pooled Submission, pooled task, reused queues — must not allocate),
// and the shed rate at a calibrated load far below capacity (must be
// exactly 0: shedding at low load means the admission accounting
// leaks). Latency belongs to the repository benchmark's serve.open
// workload.
func serviceMetrics(o Options) ([]Metric, error) {
	requests := 400
	if o.Quick {
		requests = 120
	}
	// Calibrated load: the health test-class request costs well under
	// a millisecond, so 200/s on any host is a small fraction of one
	// worker's capacity — at this load nothing may be shed.
	rep, err := serve.Run(serve.Config{
		Bench:     "health",
		Class:     core.Test,
		Scheduler: omp.DefaultScheduler,
		Cutoff:    -1,
		Workers:   shedWorkers,
		Rate:      200,
		Requests:  requests,
		Seed:      1,
	})
	if err != nil {
		return nil, fmt.Errorf("perf: service run: %w", err)
	}
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("perf: service report: %w", err)
	}
	shed := Metric{
		Name:    "serve/shed-rate",
		Value:   float64(rep.Shed) / float64(rep.Submitted+rep.Shed),
		Unit:    "fraction",
		Better:  "lower",
		Gate:    true,
		Ceiling: shedRateCeiling,
		Params:  fmt.Sprintf("bench=health/class=test/rate=200/requests=%d/threads=%d", requests, shedWorkers),
		Extra: map[string]float64{
			"shed":            float64(rep.Shed),
			"verify_failures": float64(rep.VerifyFailures),
		},
	}
	return []Metric{submitAllocMetric(), shed}, nil
}

// submitAllocMetric measures steady-state allocations per
// persistent-team submission with a small task DAG per request, on a
// one-worker team so the counts are deterministic. The submission
// path recycles the Submission struct, its done channel, and every
// task, so steady state is 0.
func submitAllocMetric() Metric {
	pt := omp.NewPersistentTeam(1)
	noop := func(c *omp.Context) {}
	body := func(c *omp.Context) {
		for i := 0; i < 16; i++ {
			c.Task(noop)
		}
		c.Taskwait()
	}
	for i := 0; i < 50; i++ { // warm the pools
		pt.SubmitWait(body)
	}
	allocs := testing.AllocsPerRun(300, func() { pt.SubmitWait(body) })
	pt.Close()
	return Metric{
		Name:    "serve/submit-allocs",
		Value:   allocs,
		Unit:    "allocs/request",
		Better:  "lower",
		Gate:    true,
		Ceiling: submitAllocCeiling,
		Params:  "workers=1/tasks=16",
	}
}
