package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bots/internal/lab"
)

func sampleReport() *Report {
	return &Report{
		Schema:    Schema,
		CreatedAt: time.Date(2026, 7, 28, 0, 0, 0, 0, time.UTC),
		Host:      lab.CurrentHost(),
		Metrics: []Metric{
			{Name: "a/allocs", Value: 4, Unit: "allocs/task", Better: "lower", Gate: true, Ceiling: 5},
			{Name: "a/rate", Value: 100, Unit: "tasks/s", Better: "higher", Params: "n=5"},
			{Name: "a/elapsed", Value: 1000, Unit: "ns", Better: "lower", Params: "class=test"},
		},
	}
}

func TestReportValidate(t *testing.T) {
	r := sampleReport()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sampleReport()
	bad.Schema = "bots-bench/v1"
	if bad.Validate() == nil {
		t.Error("old schema should fail validation")
	}
	dup := sampleReport()
	dup.Metrics = append(dup.Metrics, dup.Metrics[0])
	if dup.Validate() == nil {
		t.Error("duplicate metric key should fail validation")
	}
	wrongDir := sampleReport()
	wrongDir.Metrics[0].Better = "sideways"
	if wrongDir.Validate() == nil {
		t.Error("invalid better direction should fail validation")
	}
	gatedHigher := sampleReport()
	gatedHigher.Metrics[1].Gate = true
	if gatedHigher.Validate() == nil {
		t.Error("a gated higher-is-better metric should fail validation")
	}
}

// TestViolations pins the gate: a gated metric fails when its value is
// above its ceiling and only then, a ceiling of 0 admits exactly 0,
// and an ungated metric never fails whatever its value.
func TestViolations(t *testing.T) {
	names := func(ms []Metric) string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return strings.Join(out, ",")
	}
	r := sampleReport()
	r.Metrics = append(r.Metrics, Metric{Name: "b/zero", Value: 0, Unit: "allocs/op", Better: "lower", Gate: true})
	r.Metrics[2].Value = 1e12 // ungated: never a violation
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("violations = %s, want none", names(v))
	}
	r.Metrics[0].Value = 5 // at its ceiling
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("a value at its ceiling was flagged: %s", names(v))
	}
	r.Metrics[0].Value = 5.0001
	r.Metrics[3].Value = 1e-9 // ceiling 0: any nonzero value fails
	if got := names(r.Violations()); got != "a/allocs,b/zero" {
		t.Fatalf("violations = %q, want a/allocs,b/zero", got)
	}
}

func TestWriteReadReportAndNextBenchPath(t *testing.T) {
	dir := t.TempDir()
	p, err := NextBenchPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_0.json" {
		t.Fatalf("first path = %s, want BENCH_0.json", p)
	}
	if err := WriteReport(sampleReport(), p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != 3 || got.Metrics[0].Name != "a/allocs" || got.Metrics[0].Ceiling != 5 {
		t.Fatalf("round-trip lost metrics: %+v", got.Metrics)
	}
	// Trajectory is append-only: next index follows the highest.
	if err := os.Rename(p, filepath.Join(dir, "BENCH_7.json")); err != nil {
		t.Fatal(err)
	}
	p2, err := NextBenchPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p2) != "BENCH_8.json" {
		t.Fatalf("next path = %s, want BENCH_8.json", p2)
	}
}

// TestQuickSuiteSmoke runs the real measurement suite at its smallest
// size: the report must validate, carry exactly the seven gated
// metrics with their ceilings, hold every one of them, and carry the
// strong-scaling suite.
func TestQuickSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	rep, err := Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"fib/spawn-allocs":            0.0155,
		"fib/spawn-allocs-undeferred": 0.0115,
		"future/spawn-allocs":         0.05,
		"fib/spawn-allocs-sustained":  1.2,
		"serve/submit-allocs":         0,
		"serve/shed-rate":             0,
		"obs/record-allocs":           0,
	}
	gated := map[string]float64{}
	for _, m := range rep.Metrics {
		if m.Gate {
			gated[m.Name] = m.Ceiling
		}
	}
	if fmt.Sprint(gated) != fmt.Sprint(want) {
		t.Errorf("gated metrics and ceilings = %v, want %v", gated, want)
	}
	if !raceEnabled {
		for _, m := range rep.Violations() {
			t.Errorf("%s = %v %s, above its ceiling %v", m.Name, m.Value, m.Unit, m.Ceiling)
		}
	}
	if shed, _ := rep.Metric("serve/shed-rate"); shed.Extra["verify_failures"] != 0 {
		t.Errorf("service run had %v verification failures", shed.Extra["verify_failures"])
	}
	for _, bench := range []string{"fib", "nqueens", "sort", "strassen", "sparselu"} {
		for _, kind := range []string{"speedup", "efficiency"} {
			if _, ok := rep.Metric("scaling/" + bench + "/" + kind); !ok {
				t.Errorf("suite report lacks scaling/%s/%s", bench, kind)
			}
		}
	}
}

// TestScalingMetrics pins the strong-scaling suite's shape: every
// benchmark reports an ungated speedup/efficiency pair per worker
// count, the single-worker point is exactly 1.0 by construction,
// params carry the host CPU count, and the contention counters ride in
// Extra.
func TestScalingMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	ms, err := scalingMetrics(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := scalingWorkerCounts()
	if len(counts) < 3 || counts[0] != 1 || counts[1] != 2 || counts[2] != 4 {
		t.Fatalf("worker counts = %v, want at least [1 2 4]", counts)
	}
	if want := 5 * len(counts) * 2; len(ms) != want {
		t.Fatalf("scaling metrics = %d, want %d (5 benches x %d counts x speedup+efficiency)", len(ms), want, len(counts))
	}
	cpus := fmt.Sprintf("cpus=%d", runtime.NumCPU())
	for i := 0; i < len(ms); i += 2 {
		sp, eff := ms[i], ms[i+1]
		if !strings.HasSuffix(sp.Name, "/speedup") || !strings.HasSuffix(eff.Name, "/efficiency") {
			t.Fatalf("metric pair out of shape: %s / %s", sp.Name, eff.Name)
		}
		if sp.Gate || eff.Gate {
			t.Fatalf("scaling metrics are informational: speedup gated=%v efficiency gated=%v", sp.Gate, eff.Gate)
		}
		if sp.Params != eff.Params || !strings.Contains(sp.Params, cpus) {
			t.Fatalf("params must match and pin the host cpu count: %q vs %q", sp.Params, eff.Params)
		}
		if strings.Contains(sp.Params, "threads=1/") && sp.Value != 1.0 {
			t.Fatalf("single-worker speedup = %v, want exactly 1.0: %q", sp.Value, sp.Params)
		}
		if sp.Extra["elapsed_ns"] <= 0 {
			t.Fatalf("scaling point lacks elapsed_ns: %+v", sp)
		}
		if _, ok := sp.Extra["idle_parks"]; !ok {
			t.Fatalf("scaling point lacks contention counters: %+v", sp.Extra)
		}
	}
}
