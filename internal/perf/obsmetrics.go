package perf

import (
	"fmt"
	"testing"
	"time"

	"bots/internal/obs"
	"bots/internal/omp"
)

// obsMetrics measures the observability layer itself (internal/obs,
// DESIGN.md §11). Two metrics come out:
//
//   - Host-independent, gated: steady-state allocations per record
//     operation (counter increment, sharded increment, histogram
//     record). The whole point of the sharded-counter and log-bucket
//     designs is that recording is a few atomic ops and nothing else,
//     so this must stay ~0. A zero baseline cannot regress through
//     Compare, so TestObsGates asserts the bound directly.
//
//   - Host-dependent, informational: the fib spawn-rate tax of full
//     instrumentation — a flight recorder sized as the drivers size
//     it, which stamps a timestamped event on every spawn, steal,
//     park, wake, and finish — relative to a bare region. The
//     pull-based registry costs nothing between scrapes by
//     construction; the recorder is the only per-event cost, and this
//     ratio tracks it across PRs.
func obsMetrics(o Options) []Metric {
	metrics := []Metric{obsRecordAllocMetric()}

	n := 22
	if o.Quick {
		n = 18
	}
	var bare, instr time.Duration
	for r := 0; r < o.Reps; r++ {
		if _, el := runFibRegion(n, o.Threads); bare == 0 || el < bare {
			bare = el
		}
	}
	for r := 0; r < o.Reps; r++ {
		fr := obs.NewFlightRecorder(o.Threads, 4096)
		if _, el := runFibRegion(n, o.Threads, omp.WithFlightRecorder(fr)); instr == 0 || el < instr {
			instr = el
		}
	}
	metrics = append(metrics, Metric{
		Name:   "obs/fib-overhead",
		Value:  float64(instr) / float64(bare),
		Unit:   "ratio",
		Better: "lower",
		Params: fmt.Sprintf("n=%d/threads=%d/ring=4096", n, o.Threads),
		Extra: map[string]float64{
			"bare_ns":  float64(bare),
			"instr_ns": float64(instr),
		},
	})
	return metrics
}

// obsRecordAllocMetric measures steady-state allocations across the
// four record-path operations every instrumented hot path uses:
// Counter.Inc, Counter.AddShard, Histogram.RecordValue, and a worker's
// flight-recorder obs.Writer.Record (including the batch publish every
// full stage). All four write into preallocated storage, so the
// per-operation count is exactly 0.
func obsRecordAllocMetric() Metric {
	reg := obs.NewRegistry()
	c := reg.Counter("perf_obs_ops_total", "Record-path allocation probe.")
	var h obs.Histogram
	reg.RegisterHistogram("perf_obs_probe_seconds", "Record-path allocation probe.", &h)
	ev := obs.NewFlightRecorder(1, 4096).Writer(0)
	const n = 1024
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			c.Inc()
			c.AddShard(i, 1)
			h.RecordValue(int64(i) * 1000)
			ev.Record(obs.EvSpawn, int64(i))
		}
	}) / (4 * n)
	return Metric{
		Name:   "obs/record-allocs",
		Value:  allocs,
		Unit:   "allocs/op",
		Better: "lower",
		Gate:   true,
		Params: "ops=inc+addshard+hist-record+flight-writer",
	}
}
