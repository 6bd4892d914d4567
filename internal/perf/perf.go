// Package perf is the gate half of the suite's performance
// measurement: a small pinned suite over the internal/omp hot paths
// whose report (`BENCH_<n>.json`, schema bots-bench/v2) carries
//
//   - gated metrics (Gate=true): host-independent counts — spawn-path
//     allocations per task, persistent-team submission allocations,
//     flight-recorder record allocations, the shed rate at a calibrated
//     load — each held under an absolute Ceiling written in code, so a
//     gate cannot creep with a re-recorded baseline; and
//   - the strong-scaling suite (scaling.go): speedup and parallel
//     efficiency at 1,2,4,… workers, informational, because a
//     wall-clock ratio compares only between runs on equivalent hosts.
//
// The BOTS paper is about overheads — which scheduler/cut-off
// configuration wins is decided by task creation, queuing, and
// stealing costs. Timings of those costs, each with a noise bound,
// belong to the repository benchmark (benchmark/); this package keeps
// what that benchmark does not measure. `cmd/botsbench` drives it and
// exits non-zero when any gated metric is above its ceiling.
package perf

import (
	"fmt"
	"time"

	"bots/internal/lab"
)

// Schema identifies the report format. v2 dropped the baseline
// comparison: a gate is Value ≤ Ceiling and nothing else.
const Schema = "bots-bench/v2"

// Metric is one measured quantity of a benchmark run.
type Metric struct {
	// Name identifies the metric across runs ("fib/spawn-allocs").
	Name string `json:"name"`
	// Value is the measurement in Unit.
	Value float64 `json:"value"`
	// Unit is the measurement unit ("allocs/task", "ratio", "x").
	Unit string `json:"unit"`
	// Better is "lower" or "higher" — the direction of improvement.
	Better string `json:"better"`
	// Gate marks a host-independent metric that must satisfy
	// Value ≤ Ceiling; gated metrics are lower-is-better.
	Gate bool `json:"gate,omitempty"`
	// Ceiling is the gated metric's absolute bound, written in code.
	// A ceiling of 0 means the value must be exactly 0, so it is
	// always serialized. Ungated metrics leave it 0 and ignore it.
	Ceiling float64 `json:"ceiling"`
	// Params pins the workload parameters the value was measured
	// under ("n=25/threads=4/cpus=2"); Name and Params together are
	// unique within a report.
	Params string `json:"params,omitempty"`
	// Extra carries secondary counters (steal attempts/fails, idle
	// parks, task counts) alongside the headline value.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// key is the identity of a metric within a report.
func (m Metric) key() string { return m.Name + "|" + m.Params }

// Report is one full benchmark-suite run — the object serialized as
// BENCH_<n>.json.
type Report struct {
	Schema    string       `json:"schema"`
	CreatedAt time.Time    `json:"created_at"`
	Host      lab.HostInfo `json:"host"`
	// Quick marks reduced-size runs (CI smoke).
	Quick   bool     `json:"quick,omitempty"`
	Metrics []Metric `json:"metrics"`
}

// Metric returns the named metric, if present (first match wins; the
// suite never emits duplicate keys).
func (r *Report) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Violations returns the gated metrics whose value is above their
// ceiling, in report order.
func (r *Report) Violations() []Metric {
	var out []Metric
	for _, m := range r.Metrics {
		if m.Gate && m.Value > m.Ceiling {
			out = append(out, m)
		}
	}
	return out
}

// Validate checks the structural invariants every reader relies on.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("perf: unknown schema %q (want %q)", r.Schema, Schema)
	}
	if len(r.Metrics) == 0 {
		return fmt.Errorf("perf: report has no metrics")
	}
	seen := map[string]bool{}
	for _, m := range r.Metrics {
		if m.Name == "" {
			return fmt.Errorf("perf: metric with empty name")
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("perf: metric %s: better must be lower/higher, got %q", m.Name, m.Better)
		}
		if m.Gate && m.Better != "lower" {
			return fmt.Errorf("perf: gated metric %s must be lower-is-better", m.Name)
		}
		if seen[m.key()] {
			return fmt.Errorf("perf: duplicate metric %s (params %q)", m.Name, m.Params)
		}
		seen[m.key()] = true
	}
	return nil
}
