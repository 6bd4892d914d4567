package perf

import (
	"testing"

	"bots/internal/obs"
)

// obsRecordAllocMetric measures steady-state allocations across the
// four record-path operations every instrumented hot path uses
// (internal/obs, DESIGN.md §11): Counter.Inc, Counter.AddShard,
// Histogram.RecordValue, and a worker's flight-recorder
// obs.Writer.Record (including the batch publish every full stage).
// All four write into preallocated storage, so the per-operation count
// is exactly 0 and teams can stay instrumented without disturbing the
// allocation gates on the paths they observe. The recorder's time cost
// is the repository benchmark's obs.flightrec_ratio.
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
		Name:    "obs/record-allocs",
		Value:   allocs,
		Unit:    "allocs/op",
		Better:  "lower",
		Gate:    true,
		Ceiling: recordAllocCeiling,
		Params:  "ops=inc+addshard+hist-record+flight-writer",
	}
}
