package report

import (
	"bytes"
	"strings"
	"testing"

	_ "bots/internal/apps/all"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/omp"
)

var quickThreads = []int{1, 2, 4, 8}

// testExec and testRunner are shared across the package's tests: an
// in-memory store-backed cached runner, so repeated cells (the same
// figure rendered by two tests) measure once.
var (
	testExec   = lab.NewDirectRunner()
	testRunner = newTestRunner()
)

func newTestRunner() *lab.CachedRunner {
	store, err := lab.OpenStore("")
	if err != nil {
		panic(err)
	}
	return lab.NewCachedRunner(store, testExec)
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, name := range []string{"alignment", "fft", "fib", "floorplan", "health", "nqueens", "sort", "sparselu", "strassen"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table I missing %s", name)
		}
	}
	if !strings.Contains(out, "depth-based") || !strings.Contains(out, "single/for") {
		t.Error("Table I missing expected metadata values")
	}
}

func TestTable2Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(testRunner, &buf, core.Test); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "taskwaits/task") {
		t.Error("Table II missing column headers")
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("Table II contains non-finite values:\n%s", out)
	}
}

func TestProfileBenchmarkFib(t *testing.T) {
	b, _ := core.Get("fib")
	row, err := ProfileBenchmark(testRunner, b, core.Test)
	if err != nil {
		t.Fatal(err)
	}
	// fib's no-cutoff profile has the paper's character: tiny tasks
	// (a few ops each), ~0.5 taskwaits per task, small captured
	// environment, all writes shared.
	if row.OpsPerTask > 10 {
		t.Errorf("fib ops/task = %v, want tiny", row.OpsPerTask)
	}
	if row.WaitsPerTask < 0.3 || row.WaitsPerTask > 0.7 {
		t.Errorf("fib taskwaits/task = %v, want ≈ 0.5", row.WaitsPerTask)
	}
	if row.PctNonPrivate < 99 {
		t.Errorf("fib %% non-private = %v, want ≈ 100", row.PctNonPrivate)
	}
}

func TestSpeedupSeriesFibManual(t *testing.T) {
	b, _ := core.Get("fib")
	s, err := SpeedupSeries(testRunner, b, "manual-tied", SeriesConfig{Class: core.Small, Threads: quickThreads})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(quickThreads) {
		t.Fatalf("points = %d, want %d", len(s.Points), len(quickThreads))
	}
	// Speedup should be positive everywhere and grow from 1 to 8
	// threads for a benchmark with abundant parallelism.
	for _, p := range s.Points {
		if p.Speedup <= 0 {
			t.Fatalf("non-positive speedup at %d threads", p.Threads)
		}
	}
	if s.Points[3].Speedup < 2*s.Points[0].Speedup {
		t.Fatalf("manual fib should scale: 1t=%.2f 8t=%.2f",
			s.Points[0].Speedup, s.Points[3].Speedup)
	}
}

func TestCutoffOrderingOnFib(t *testing.T) {
	// The paper's Figure 4 finding, transposed to fib at 8 threads:
	// manual ≥ if-clause ≥ no-cutoff in speedup, because fib's
	// no-cutoff version drowns in task-management overhead.
	b, _ := core.Get("fib")
	get := func(version string) float64 {
		s, err := SpeedupSeries(testRunner, b, version, SeriesConfig{Class: core.Small, Threads: []int{8}})
		if err != nil {
			t.Fatal(err)
		}
		return s.Points[0].Speedup
	}
	man := get("manual-tied")
	ifc := get("if-tied")
	none := get("none-tied")
	if !(man >= ifc) {
		t.Errorf("manual (%.2f) should beat if-clause (%.2f)", man, ifc)
	}
	if !(ifc >= none) {
		t.Errorf("if-clause (%.2f) should beat no-cutoff (%.2f)", ifc, none)
	}
	if none > man/2 {
		t.Errorf("no-cutoff fib (%.2f) should be far below manual (%.2f)", none, man)
	}
}

func TestFig4Nqueens(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(testRunner, &buf, core.Test, quickThreads); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, label := range []string{"manual cut-off", "if clause cut-off", "no cut-off"} {
		if !strings.Contains(out, label) {
			t.Errorf("Figure 4 missing series %q", label)
		}
	}
}

func TestFig5TiedUntied(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(testRunner, &buf, core.Test, quickThreads); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alignment (tied)") ||
		!strings.Contains(buf.String(), "nqueens (manual-untied)") {
		t.Error("Figure 5 missing series labels")
	}
}

func TestAblationGenerators(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationGenerators(testRunner, &buf, core.Test, quickThreads); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "single-tied") || !strings.Contains(buf.String(), "for-untied") {
		t.Error("generator ablation missing versions")
	}
}

func TestAblationCutoffDepth(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationCutoffDepth(testRunner, &buf, core.Test, 4, []int{2, 6}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cut-off depth") {
		t.Error("cut-off ablation missing header")
	}
}

func TestAblationThreadSwitch(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationThreadSwitch(testRunner, &buf, core.Test, []int{1, 4}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+switch") {
		t.Error("thread-switch ablation missing the +switch series")
	}
}

func TestAblationQueueArch(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationQueueArch(testRunner, &buf, core.Test, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "central-queue") {
		t.Error("queue-architecture ablation missing central-queue series")
	}
}

func TestAblationPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationPolicy(testRunner, &buf, core.Test, []int{1, 4}); err != nil {
		t.Fatal(err)
	}
	// One series per scheduler, per benchmark.
	for _, pol := range omp.Schedulers() {
		if !strings.Contains(buf.String(), "sort (untied) "+pol) {
			t.Errorf("policy ablation missing %s series", pol)
		}
	}
}

func TestFig3AllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := Fig3(testRunner, &buf, core.Test, quickThreads); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sparselu (for-tied)") || !strings.Contains(out, "strassen (none-tied)") {
		t.Errorf("Figure 3 missing expected best-version labels:\n%s", out)
	}
}

func TestTableAnalysis(t *testing.T) {
	var buf bytes.Buffer
	if err := TableAnalysis(testRunner, &buf, core.Test); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Parallelism") || !strings.Contains(out, "Span") {
		t.Error("analysis table missing columns")
	}
	if strings.Contains(out, "NaN") {
		t.Error("analysis table has NaN")
	}
}

func TestAnalyzeBenchmarkParallelismExplainsSaturation(t *testing.T) {
	// The structural story behind Figure 3: fft's average parallelism
	// must be far below sort's at comparable input classes, which is
	// why fft saturates first in the paper and in our reproduction.
	fft, _ := core.Get("fft")
	srt, _ := core.Get("sort")
	aFft, err := AnalyzeBenchmark(testRunner, fft, "untied", core.Test)
	if err != nil {
		t.Fatal(err)
	}
	aSort, err := AnalyzeBenchmark(testRunner, srt, "untied", core.Test)
	if err != nil {
		t.Fatal(err)
	}
	if aFft.Parallelism >= aSort.Parallelism {
		t.Fatalf("fft parallelism (%v) should be below sort (%v)",
			aFft.Parallelism, aSort.Parallelism)
	}
}

// TestSecondRenderIsAllCacheHits is the store contract the report
// layer is built on: rendering the same figure twice through one
// cached runner must not execute a single benchmark the second time.
func TestSecondRenderIsAllCacheHits(t *testing.T) {
	store, err := lab.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	direct := lab.NewDirectRunner()
	runner := lab.NewCachedRunner(store, direct)
	var buf bytes.Buffer
	if err := Fig4(runner, &buf, core.Test, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	first := direct.Exec.Executions()
	if first == 0 {
		t.Fatal("first render executed nothing")
	}
	buf.Reset()
	if err := Fig4(runner, &buf, core.Test, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := direct.Exec.Executions(); got != first {
		t.Fatalf("second render executed %d benchmarks, want 0", got-first)
	}
	if runner.Hits() == 0 {
		t.Fatal("second render produced no cache hits")
	}
}

// TestRenderDispatch checks the name → artifact dispatch shared by
// botsreport and the HTTP /report endpoint.
func TestRenderDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(testRunner, &buf, "table1", core.Test, []int{1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("dispatching table1 rendered something else")
	}
	err := Render(testRunner, &buf, "fig99", core.Test, []int{1})
	if err == nil || !strings.Contains(err.Error(), "unknown report figure") {
		t.Errorf("unknown figure error = %v", err)
	}
}
