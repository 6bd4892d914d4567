package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// A workload is one row of the catalogue at run time. The harness
// calls setup (timed: setup_s), then measure one or more times, then
// probes in a traced run, then close.
type workload interface {
	// setup builds everything the timed window must not pay for:
	// generated inputs, sequential baselines, recorded traces, temp
	// stores, servers.
	setup(e *env) error
	// measure runs the workload for about e.window and records its
	// time_ms and rate_per_s samples in e. With e.tr set it records a
	// span around every call into a layer.
	measure(e *env) error
	// probes measures this workload's per-layer metrics that the spans
	// of measure cannot give (micro-probes, counters, extra runs).
	probes(e *env) error
	// close releases what setup acquired and waits for everything it
	// started.
	close() error
}

// env carries one run's inputs and collects its outputs.
type env struct {
	seed   uint64
	rng    *rand.Rand
	window time.Duration // measurement window of one measure call
	quick  bool          // smoke scale: test-class inputs, tiny lists
	outDir string        // scratch files and trace.json, inside the checkout
	tr     *tracer       // nil when untraced
	root   *span         // the traced pass's root span

	attempted atomic.Int64 // operations whose result was checked
	failed    atomic.Int64 // of those, the ones that were wrong, lost or refused

	timeMS []float64 // time_ms samples; the metric is their median
	rates  []float64 // rate_per_s samples; the metric is their median
	layers map[string]float64
}

func newEnv(seed uint64, window time.Duration, quick bool, outDir string) *env {
	return &env{
		seed:   seed,
		rng:    rand.New(rand.NewSource(int64(seed))),
		window: window,
		quick:  quick,
		outDir: outDir,
		layers: map[string]float64{},
	}
}

// check counts one verified operation; a non-nil err is a failure.
func (e *env) check(err error) {
	e.attempted.Add(1)
	if err != nil {
		e.failed.Add(1)
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
	}
}

// checkN counts n verified operations of which bad failed.
func (e *env) checkN(n, bad int64, what string) {
	e.attempted.Add(n)
	if bad > 0 {
		e.failed.Add(bad)
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: %d of %d %s\n", bad, n, what)
	}
}

func (e *env) layer(name string, v float64) { e.layers[name] = v }

// scratch returns a fresh directory under outDir for temp stores and
// journals; the caller removes it.
func (e *env) scratch(prefix string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, prefix+"-")
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Seed      uint64
	Metrics   map[string]value // by metric name
	Attempted int64
	Failed    int64
}

type value struct {
	Value float64
	Unit  string
	N     int // samples behind the value
}

// runUntraced is the contract's `-trace 0` run: SetupReps timed
// set-ups (the last one kept), one measured window, every end-to-end
// metric.
func runUntraced(def *workloadDef, e *env) (*result, error) {
	var w workload
	var setups []float64
	for i := 0; i < SetupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", def.Name, err)
			}
		}
		w = def.New()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", def.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	err := w.measure(e)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	return &result{
		Workload: def.Name,
		Seed:     e.seed,
		Metrics: map[string]value{
			"setup_s":    {median(setups), "s", len(setups)},
			"time_ms":    {median(e.timeMS), "ms", len(e.timeMS)},
			"rate_per_s": {median(e.rates), "1/s", len(e.rates)},
		},
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load(),
	}, nil
}

// runTraced is the contract's `-trace 1` run: one set-up, a shortened
// untraced pass, the same pass again with spans, then the workload's
// probes. End-to-end numbers never come from here; trace_overhead is
// the ratio of the two passes' time_ms.
func runTraced(def *workloadDef, e *env) (*result, *tracer, error) {
	w := def.New()
	if err := w.setup(e); err != nil {
		w.close()
		return nil, nil, fmt.Errorf("%s: setup: %w", def.Name, err)
	}
	full := e.window
	e.window = full / 4
	run := func() error {
		if err := w.measure(e); err != nil {
			return err
		}
		untraced := median(e.timeMS)
		e.timeMS, e.rates = nil, nil

		e.tr = newTracer(def.Name)
		e.root = e.tr.start(nil, "bench", "traced pass")
		err := w.measure(e)
		e.root.end()
		if err != nil {
			return err
		}
		e.layer("trace_overhead", median(e.timeMS)/untraced)
		for layer, self := range e.tr.selfByLayer() {
			e.layer("self_ms."+layer, ms(self))
		}
		// Probes are not part of the pass the overhead compares, but
		// their spans are worth having in trace.json.
		e.root = e.tr.start(nil, "bench", "probes")
		e.window = full / 2
		err = w.probes(e)
		e.root.end()
		return err
	}
	err := run()
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	res := &result{
		Workload:  def.Name,
		Seed:      e.seed,
		Metrics:   map[string]value{},
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load(),
	}
	for _, m := range perLayer {
		// A metric this workload does not measure reads 0.
		res.Metrics[m.Name] = value{e.layers[m.Name], m.Unit, 1}
	}
	for name := range e.layers {
		if _, ok := res.Metrics[name]; !ok {
			return nil, nil, fmt.Errorf("%s: layer metric %q is not in the catalogue", def.Name, name)
		}
	}
	return res, e.tr, nil
}

// passes calls pass until the window is used up, after `warmups`
// unrecorded calls. It stops early when the next pass would overrun
// the window by more than half its own length, so a workload whose
// pass is a sizeable share of the window keeps its run length.
func passes(e *env, warmups int, pass func(timed bool) error) error {
	for i := 0; i < warmups; i++ {
		if err := pass(false); err != nil {
			return err
		}
	}
	start := time.Now()
	for {
		t0 := time.Now()
		if err := pass(true); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0)/2 >= e.window {
			return nil
		}
	}
}
