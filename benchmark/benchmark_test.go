package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the driver's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesBenchmarkJSON holds workloads.go and
// BENCHMARK.json to each other and both to the driver's naming rules.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %d, catalogue %d", bj.RunSeconds, RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the naming rule", kind, n)
		}
		if seen[kind+n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[kind+n] = true
	}

	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalogue %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name("workload", w.Name)
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, catalogue %q / %q", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Load == "" || w.Time == "" || w.Rate == "" {
			t.Errorf("workload %s: load, time and rate must say what they are", w.Name)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if got := bj.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, catalogue %+v", i, got, m)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower")
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if got := bj.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, catalogue %+v", i, got, m.metric)
		}
		for _, w := range m.On {
			if findWorkload(w) == nil {
				t.Errorf("metric %s is measured on unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestSelfTimes checks the span arithmetic on a hand-built tree with
// overlapping children and a child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	add := func(parent int, layer string, start, end int64) int {
		s := &span{tr: tr, ID: len(tr.Spans) + 1, Parent: parent, Layer: layer, Start: start, End: end}
		tr.Spans = append(tr.Spans, s)
		return s.ID
	}
	root := add(0, "bench", 0, 100)
	a := add(root, "x", 10, 40)
	add(root, "x", 30, 60)  // overlaps a: union with it is [10,60]
	add(root, "y", 90, 120) // clipped to the parent: [90,100]
	add(a, "y", 15, 25)

	self := tr.selfTimes()
	for id, want := range map[int]time.Duration{root: 40, a: 20} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	by := tr.selfByLayer()
	if by["bench"] != 40 || by["x"] != 50 || by["y"] != 40 {
		t.Errorf("self by layer: %v", by)
	}
}

// quickRun runs the default command at smoke scale and returns its
// report.
func quickRun(t *testing.T, o options) string {
	t.Helper()
	o.quick, o.seed = true, 1
	var out bytes.Buffer
	if code := run(o, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	return out.String()
}

// sections splits a report into its per-workload blocks.
func sections(t *testing.T, report string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, block := range strings.Split("\n"+report, "\nworkload ")[1:] {
		name, _, _ := strings.Cut(block, " ")
		out[name] = block
	}
	if len(out) != len(workloads) {
		t.Fatalf("report has %d workload blocks, want %d", len(out), len(workloads))
	}
	return out
}

// printedOnce reports how many lines of block are the metric's: its
// name, a number, its unit and a sample count.
func printed(block string, m metric) int {
	re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +[-+0-9.e]+ ` + regexp.QuoteMeta(m.Unit) + ` +n=[0-9]+ `)
	return len(re.FindAllString(block, -1))
}

// TestQuickSmoke runs every workload untraced and traced at smoke
// scale: every catalogued metric is printed once where it applies,
// the last line is the driver's object, trace.json holds a span tree
// whose self times add up, and nothing is left behind.
func TestQuickSmoke(t *testing.T) {
	runtime.GOMAXPROCS(Threads)
	dir := t.TempDir()
	before := runtime.NumGoroutine()

	report := quickRun(t, options{seconds: 0.15, outDir: dir})
	for name, block := range sections(t, report) {
		for _, m := range endToEnd {
			if n := printed(block, m); n != 1 {
				t.Errorf("%s: %s printed %d times, want once:\n%s", name, m.Name, n, block)
			}
		}
	}
	lastLine := func(report string) map[string]any {
		lines := strings.Split(strings.TrimSpace(report), "\n")
		var obj map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if obj["correct"] != true || obj["failed"] != 0.0 || obj["attempted"].(float64) < 1 {
			t.Errorf("result object: %v", obj)
		}
		return obj["metrics"].(map[string]any)
	}
	if got, want := len(lastLine(report)), len(workloads)*len(endToEnd); got != want {
		t.Errorf("untraced run reports %d metrics, want %d", got, want)
	}

	report = quickRun(t, options{seconds: 0.3, trace: 1, outDir: dir})
	for name, block := range sections(t, report) {
		for _, m := range perLayer {
			n := printed(block, m.metric)
			switch {
			case !m.on(name) && n != 0:
				t.Errorf("%s: %s printed though not measured there", name, m.Name)
			case m.on(name) && m.On == nil && n > 1, m.on(name) && (m.On != nil || m.Name == "trace_overhead") && n != 1:
				t.Errorf("%s: %s printed %d times:\n%s", name, m.Name, n, block)
			}
		}
	}
	if got, want := len(lastLine(report)), len(workloads)*len(perLayer); got != want {
		t.Errorf("traced run reports %d metrics, want %d", got, want)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var traces []*tracer
	if err := json.Unmarshal(raw, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(workloads) {
		t.Fatalf("trace.json holds %d workloads, want %d", len(traces), len(workloads))
	}
	// Where one thing happens at a time, every nanosecond of the traced
	// pass is some span's self time. (serve.open and lab.fleet run
	// spans concurrently, so theirs add up to more.)
	for _, tr := range traces {
		if tr.Workload == "serve.open" || tr.Workload == "lab.fleet" {
			continue
		}
		self := tr.selfTimes()
		root := tr.Spans[0]
		under := map[int]bool{root.ID: true}
		var sum time.Duration
		for _, s := range tr.Spans { // parents precede children
			if under[s.Parent] {
				under[s.ID] = true
			}
			if under[s.ID] {
				sum += self[s.ID]
			}
		}
		total := time.Duration(root.End - root.Start)
		if diff := (sum - total).Abs(); diff > total/100 {
			t.Errorf("%s: self times under the traced pass sum to %s, the pass took %s", tr.Workload, sum, total)
		}
	}

	// Nothing left behind: the fleet's workers, server, dispatcher and
	// expiry loop are gone, and the scratch directories with them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Name() != "trace.json" {
			t.Errorf("left behind in the out directory: %s", ent.Name())
		}
	}
}
