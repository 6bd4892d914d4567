// Package perf is the continuous benchmark pipeline of the suite: a
// pinned micro+macro measurement suite over the internal/omp hot
// paths (task spawn rate, spawn-path allocations, per-scheduler steal
// throughput, end-to-end application times), a stable machine-readable
// report schema (`BENCH_<n>.json`), and a committed-baseline
// comparison that turns the suite into a regression gate.
//
// The BOTS paper is about overheads — which scheduler/cut-off
// configuration wins is decided by task creation, queuing, and
// stealing costs — so the reproduction needs a measurement loop that
// watches exactly those costs across PRs. `cmd/botsbench` drives this
// package, emits `BENCH_<n>.json` at the repo root (the perf
// trajectory), and fails CI when a gated metric regresses more than
// the configured threshold against the committed baseline
// (internal/perf/baseline.json).
//
// Two metric classes:
//
//   - gated metrics (Gate=true) are compared hard against the
//     committed baseline: allocation counts per task (host-independent
//     by construction, measured with testing.AllocsPerRun) and the
//     strong-scaling parallel-efficiency points (scaling.go), which
//     pin the measuring host's CPU count in their params so the gate
//     only ever fires between comparable hosts;
//   - informational metrics (spawn rates, elapsed times, steal
//     counters, scaling speedups) depend on the measuring host and are
//     reported with deltas but never fail the gate, since the
//     committed baseline was measured on a different machine than CI.
package perf

import (
	"fmt"
	"time"

	"bots/internal/lab"
)

// Schema identifies the report format. Bump only with a reader that
// still accepts every older version.
const Schema = "bots-bench/v1"

// Metric is one measured quantity of a benchmark run.
type Metric struct {
	// Name identifies the metric across runs ("fib/spawn-allocs");
	// comparisons match on it.
	Name string `json:"name"`
	// Value is the measurement in Unit.
	Value float64 `json:"value"`
	// Unit is the measurement unit ("allocs/task", "tasks/s", "ns").
	Unit string `json:"unit"`
	// Better is "lower" or "higher" — the direction of improvement.
	Better string `json:"better"`
	// Gate marks host-independent metrics that participate in the
	// regression gate.
	Gate bool `json:"gate,omitempty"`
	// Ceiling, when non-zero, is an absolute bound written in code: a
	// lower-is-better value above it fails the gate whatever the
	// baseline says, so the gate cannot creep with a re-anchored
	// baseline.
	Ceiling float64 `json:"ceiling,omitempty"`
	// Params pins the workload parameters the value was measured
	// under ("fib=25/threads=4"). Metrics are only compared when both
	// Name and Params match, so a quick-mode run never compares its
	// timings against a full-mode baseline.
	Params string `json:"params,omitempty"`
	// Extra carries secondary counters (steal attempts/fails, idle
	// parks, task counts) alongside the headline value.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// key is the comparison identity of a metric.
func (m Metric) key() string { return m.Name + "|" + m.Params }

// Report is one full benchmark-suite run — the object serialized as
// BENCH_<n>.json and as the committed baseline.
type Report struct {
	Schema    string       `json:"schema"`
	CreatedAt time.Time    `json:"created_at"`
	Host      lab.HostInfo `json:"host"`
	// Quick marks reduced-size runs (CI smoke).
	Quick   bool     `json:"quick,omitempty"`
	Metrics []Metric `json:"metrics"`
	// Comparison is the delta against the baseline the run was
	// compared to, when one was.
	Comparison *Comparison `json:"comparison,omitempty"`
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
		if seen[m.key()] {
			return fmt.Errorf("perf: duplicate metric %s (params %q)", m.Name, m.Params)
		}
		seen[m.key()] = true
	}
	return nil
}

// Delta is one metric compared across two reports. Pct is the change
// in the metric's value relative to the baseline (negative = value
// went down); Improved orients it by the metric's Better direction.
type Delta struct {
	Name     string  `json:"name"`
	Params   string  `json:"params,omitempty"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Pct      float64 `json:"pct"`
	Improved bool    `json:"improved"`
	// Regression is set when a gated metric moved in the wrong
	// direction past the comparison threshold.
	Regression bool `json:"regression,omitempty"`
}

// Comparison is a full run-vs-baseline diff.
type Comparison struct {
	// BaselineCreatedAt and BaselineHost locate the baseline run.
	BaselineCreatedAt time.Time    `json:"baseline_created_at"`
	BaselineHost      lab.HostInfo `json:"baseline_host"`
	// MaxRegression is the gate threshold the comparison used
	// (fraction, e.g. 0.25).
	MaxRegression float64 `json:"max_regression"`
	Deltas        []Delta `json:"deltas"`
	// Regressions counts gated metrics past the threshold; CI fails
	// when it is non-zero.
	Regressions int `json:"regressions"`
}

// sameHost reports whether timings taken on a and b compare: the same
// CPU count and Go toolchain. Gated metrics (counts, host-pinned
// efficiencies) and ceilings compare across any two hosts.
func sameHost(a, b lab.HostInfo) bool {
	return a.CPUs == b.CPUs && a.GoVersion == b.GoVersion
}

// Compare diffs cur against base: metrics match when Name and Params
// both match, and gated metrics moving in the wrong direction by more
// than maxRegression are flagged. A metric above its own Ceiling is
// flagged without consulting the baseline (its delta is reported
// against the ceiling). Ungated metrics get no delta when the two
// reports come from different hosts (sameHost). The returned
// comparison is also attached to cur.
func Compare(cur, base *Report, maxRegression float64) *Comparison {
	cmp := &Comparison{
		BaselineCreatedAt: base.CreatedAt,
		BaselineHost:      base.Host,
		MaxRegression:     maxRegression,
	}
	timings := sameHost(cur.Host, base.Host)
	baseBy := map[string]Metric{}
	for _, m := range base.Metrics {
		baseBy[m.key()] = m
	}
	for _, m := range cur.Metrics {
		if m.Ceiling > 0 && m.Value > m.Ceiling {
			cmp.Deltas = append(cmp.Deltas, Delta{
				Name: m.Name, Params: m.Params,
				Baseline: m.Ceiling, Current: m.Value,
				Pct:        (m.Value - m.Ceiling) / m.Ceiling * 100,
				Regression: true,
			})
			cmp.Regressions++
			continue
		}
		b, ok := baseBy[m.key()]
		if !ok || !m.Gate && !timings {
			continue
		}
		d := Delta{
			Name:     m.Name,
			Params:   m.Params,
			Baseline: b.Value,
			Current:  m.Value,
		}
		if b.Value != 0 {
			d.Pct = (m.Value - b.Value) / b.Value * 100
		}
		if m.Better == "lower" {
			d.Improved = m.Value < b.Value
		} else {
			d.Improved = m.Value > b.Value
		}
		if m.Gate && b.Value != 0 {
			worse := 0.0
			if m.Better == "lower" {
				worse = (m.Value - b.Value) / b.Value
			} else {
				worse = (b.Value - m.Value) / b.Value
			}
			if worse > maxRegression {
				d.Regression = true
				cmp.Regressions++
			}
		}
		cmp.Deltas = append(cmp.Deltas, d)
	}
	cur.Comparison = cmp
	return cmp
}
