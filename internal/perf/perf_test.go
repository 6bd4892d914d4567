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
			{Name: "a/allocs", Value: 4, Unit: "allocs/task", Better: "lower", Gate: true},
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
	bad.Schema = "bogus"
	if bad.Validate() == nil {
		t.Error("unknown schema should fail validation")
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
}

func TestCompareGatesOnlyGatedMetrics(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Metrics[0].Value = 6    // gated, lower-is-better: +50% — regression
	cur.Metrics[1].Value = 10   // informational, -90% — reported, not gated
	cur.Metrics[2].Value = 5000 // informational, +400% — reported, not gated

	cmp := Compare(cur, base, 0.25)
	if cmp.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (only the gated metric)", cmp.Regressions)
	}
	if len(cmp.Deltas) != 3 {
		t.Fatalf("deltas = %d, want 3", len(cmp.Deltas))
	}
	if !cmp.Deltas[0].Regression || cmp.Deltas[1].Regression || cmp.Deltas[2].Regression {
		t.Fatalf("regression flags wrong: %+v", cmp.Deltas)
	}
	if cur.Comparison != cmp {
		t.Fatal("comparison not attached to the current report")
	}

	// Within threshold: no regression.
	cur2 := sampleReport()
	cur2.Metrics[0].Value = 4.8 // +20% < 25%
	if got := Compare(cur2, base, 0.25); got.Regressions != 0 {
		t.Fatalf("within-threshold change flagged: %+v", got)
	}

	// Improvement on a gated lower-is-better metric: never a regression.
	cur3 := sampleReport()
	cur3.Metrics[0].Value = 0.1
	cmp3 := Compare(cur3, base, 0.25)
	if cmp3.Regressions != 0 || !cmp3.Deltas[0].Improved {
		t.Fatalf("improvement misclassified: %+v", cmp3.Deltas[0])
	}
}

// TestCompareEnforcesCeilings: a metric above its own absolute ceiling
// fails the gate even when the baseline carries the same (bad) value
// or does not carry the metric at all.
func TestCompareEnforcesCeilings(t *testing.T) {
	base := sampleReport()
	base.Metrics[0].Value = 6
	cur := sampleReport()
	cur.Metrics[0].Value = 6
	cur.Metrics[0].Ceiling = 5
	cur.Metrics = append(cur.Metrics, Metric{
		Name: "b/allocs", Value: 2, Unit: "allocs/task", Better: "lower", Gate: true, Ceiling: 1.2,
	})
	if cmp := Compare(cur, base, 0.25); cmp.Regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (both metrics are above their ceilings): %+v", cmp.Regressions, cmp.Deltas)
	}
	cur.Metrics[0].Value, cur.Metrics[3].Value = 5, 1.2
	if cmp := Compare(cur, base, 0.25); cmp.Regressions != 0 {
		t.Fatalf("values at their ceilings flagged: %+v", cmp.Deltas)
	}
}

func TestCompareSkipsMismatchedParams(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Metrics[2].Params = "class=small" // full-mode run vs quick baseline
	cmp := Compare(cur, base, 0.25)
	for _, d := range cmp.Deltas {
		if d.Name == "a/elapsed" {
			t.Fatalf("metric with mismatched params should not be compared: %+v", d)
		}
	}
	if len(cmp.Deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(cmp.Deltas))
	}
}

// TestCompareAcrossHosts: two reports that differ only in the host's
// CPU count compare their gated metrics and ceilings, and nothing else.
func TestCompareAcrossHosts(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Host.CPUs = base.Host.CPUs + 1
	cur.Metrics[0].Value = 6 // gated: +50%, a regression on any host
	cur.Metrics[1].Value = 10
	cur.Metrics[2].Value = 5000
	cur.Metrics = append(cur.Metrics, Metric{
		Name: "b/allocs", Value: 2, Unit: "allocs/task", Better: "lower", Gate: true, Ceiling: 1.2,
	})
	cmp := Compare(cur, base, 0.25)
	if cmp.Regressions != 2 || len(cmp.Deltas) != 2 {
		t.Fatalf("want the gated delta and the ceiling only, got %d regressions: %+v", cmp.Regressions, cmp.Deltas)
	}
	for _, d := range cmp.Deltas {
		if d.Name != "a/allocs" && d.Name != "b/allocs" {
			t.Errorf("ungated metric compared across hosts: %+v", d)
		}
	}

	out := FormatComparison(base, cur)
	if n := strings.Count(out, "hosts differ"); n != 1 {
		t.Errorf("want one hosts-differ line, got %d:\n%s", n, out)
	}
	for _, want := range []string{"a/allocs", "+50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table lacks %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"a/rate", "a/elapsed"} {
		if strings.Contains(out, gone) {
			t.Errorf("ungated %s diffed across hosts:\n%s", gone, out)
		}
	}

	// Same host: the timings are back.
	cur.Host.CPUs = base.Host.CPUs
	if out := FormatComparison(base, cur); strings.Contains(out, "hosts differ") || !strings.Contains(out, "a/elapsed") {
		t.Errorf("same-host comparison lost its timings:\n%s", out)
	}
	if cmp := Compare(cur, base, 0.25); len(cmp.Deltas) != 4 {
		t.Errorf("same-host deltas = %d, want 4", len(cmp.Deltas))
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
	if len(got.Metrics) != 3 || got.Metrics[0].Name != "a/allocs" {
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

// TestEmbeddedBaseline pins the committed baseline: it must parse,
// validate, and contain both gated metric families the CI gate is
// stated in terms of — the post-overhaul spawn-path allocation counts
// (the trajectory's PR-4 improvement is re-anchored into the
// baseline; the absolute floor protecting it is alloc_test.go) and
// the strong-scaling efficiency metrics (≥ 5 benchmarks × ≥ 3 worker
// counts; the scalability overhaul's regression net).
func TestEmbeddedBaseline(t *testing.T) {
	base, err := LoadBaseline("")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := base.Metric("fib/spawn-allocs")
	if !ok {
		t.Fatal("embedded baseline lacks fib/spawn-allocs")
	}
	if !m.Gate || m.Better != "lower" {
		t.Fatalf("fib/spawn-allocs misconfigured in baseline: %+v", m)
	}
	if m.Value > 1.0 {
		t.Fatalf("baseline fib/spawn-allocs = %v; expected the post-overhaul ~0 allocs/task steady state (re-anchor deliberately, not accidentally)", m.Value)
	}
	benches := map[string]map[string]bool{} // bench -> worker-count params
	for _, m := range base.Metrics {
		var bench string
		if n, ok := strings.CutPrefix(m.Name, "scaling/"); ok {
			bench, ok = strings.CutSuffix(n, "/efficiency")
			if !ok {
				continue
			}
		} else {
			continue
		}
		if !m.Gate || m.Better != "higher" {
			t.Fatalf("scaling efficiency metric misconfigured: %+v", m)
		}
		if !strings.Contains(m.Params, "/cpus=") || !strings.Contains(m.Params, "threads=") {
			t.Fatalf("scaling params must pin threads and host cpus, got %q", m.Params)
		}
		if benches[bench] == nil {
			benches[bench] = map[string]bool{}
		}
		benches[bench][m.Params] = true
	}
	if len(benches) < 5 {
		t.Fatalf("baseline covers %d scaling benchmarks, want >= 5 (have %v)", len(benches), benches)
	}
	for b, pts := range benches {
		if len(pts) < 3 {
			t.Fatalf("scaling/%s has %d worker-count points, want >= 3", b, len(pts))
		}
	}
}

func TestLabRecords(t *testing.T) {
	rep := sampleReport()
	rep.Metrics[1].Extra = map[string]float64{"steal_attempts": 7, "steal_fails": 3}
	recs := LabRecords(rep)
	if len(recs) != len(rep.Metrics) {
		t.Fatalf("records = %d, want %d", len(recs), len(rep.Metrics))
	}
	keys := map[string]bool{}
	for i, r := range recs {
		if r.Spec.Bench != "perf" || r.Spec.Version != rep.Metrics[i].Name {
			t.Fatalf("record spec mismapped: %+v", r.Spec)
		}
		if r.Key == "" || keys[r.Key] {
			t.Fatalf("record keys must be unique and stable, got %q", r.Key)
		}
		keys[r.Key] = true
		if r.Metric != rep.Metrics[i].Value {
			t.Fatalf("metric value lost: %v != %v", r.Metric, rep.Metrics[i].Value)
		}
	}
	if recs[1].Stats == nil || recs[1].Stats.StealAttempts != 7 {
		t.Fatalf("extra counters not carried into stats: %+v", recs[1].Stats)
	}

	// Same-metric re-runs supersede in a store (last wins by key).
	store, err := lab.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendToStore(store, rep); err != nil {
		t.Fatal(err)
	}
	rep.Metrics[0].Value = 9
	if err := AppendToStore(store, rep); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(rep.Metrics) {
		t.Fatalf("store has %d keys, want %d (re-runs must supersede)", store.Len(), len(rep.Metrics))
	}
}

// TestQuickSuiteSmoke runs the real measurement suite at its smallest
// size: the emitted report must validate and carry every pinned
// metric family.
func TestQuickSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	rep, err := Run(Options{Quick: true, Threads: 2, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fib/spawn-allocs", "fib/spawn-allocs-undeferred", "future/spawn-allocs",
		"fib/spawn-allocs-sustained",
		"fib/spawn-rate", "nqueens/spawn-rate",
		"steal/workfirst/throughput", "steal/centralized/throughput",
		"sort/elapsed", "strassen/elapsed",
		"scaling/fib/speedup", "scaling/fib/efficiency",
		"scaling/nqueens/efficiency", "scaling/sort/efficiency",
		"scaling/strassen/efficiency", "scaling/sparselu/efficiency",
		"serve/submit-allocs", "serve/shed-rate",
		"obs/record-allocs", "obs/fib-overhead",
	} {
		if _, ok := rep.Metric(want); !ok {
			t.Errorf("suite report lacks %s", want)
		}
	}
	// The recycling overhaul's headline must hold in absolute terms
	// (the committed baseline now carries the post-overhaul values, so
	// a relative check would not catch a full regression to the ~4
	// allocs/task pre-recycling runtime).
	cur, _ := rep.Metric("fib/spawn-allocs")
	if cur.Value > 1.0 {
		t.Errorf("fib/spawn-allocs = %v, want <= 1.0 (steady state is ~0)", cur.Value)
	}
	// The sustained gate is its own ceiling: a whole two-thread kernel,
	// closures included.
	if sus, _ := rep.Metric("fib/spawn-allocs-sustained"); sus.Ceiling == 0 || sus.Value > sus.Ceiling {
		t.Errorf("fib/spawn-allocs-sustained = %v, ceiling %v", sus.Value, sus.Ceiling)
	}
}

// TestScalingMetrics pins the strong-scaling suite's shape: every
// benchmark reports a speedup/efficiency pair per worker count, the
// single-worker point is exactly 1.0 by construction, params carry
// the host CPU count, and the contention counters ride in Extra.
func TestScalingMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	ms, err := scalingMetrics(Options{Quick: true, Reps: 1}.defaults())
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
		if sp.Gate || !eff.Gate {
			t.Fatalf("gating wrong: speedup gated=%v efficiency gated=%v", sp.Gate, eff.Gate)
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

// TestFormatComparison checks the -compare rendering: matched
// metrics show deltas, one-sided metrics are marked added/removed.
func TestFormatComparison(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	b.Metrics[0].Value = 2 // improved (lower-better, gated)
	b.Metrics = append(b.Metrics[:2:2], Metric{
		Name: "a/new", Value: 1, Unit: "x", Better: "higher",
	})
	out := FormatComparison(a, b)
	for _, want := range []string{"a/allocs", "-50.0%", "improved (gated)", "(added)", "a/elapsed", "(removed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table lacks %q:\n%s", want, out)
		}
	}
}
