// Package core is the BOTS benchmark framework: the registry of
// applications, the version matrix (tied/untied × cut-off variants ×
// generator schemes), the four input classes, the self-verification
// protocol, and the runner glue between applications, the omp
// runtime, the trace recorder and the simulator.
//
// It corresponds to the suite infrastructure described in §III of the
// paper: every benchmark registers its Table I metadata, its input
// classes, a sequential reference implementation and a set of
// parallel versions, and declares one of the three verification modes
// (output validation, validation data in the input, or serial-vs-
// parallel comparison) through the Digest mechanism.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bots/internal/omp"
	"bots/internal/trace"
)

// Class is an input class, as defined in §III-A of the paper. The
// absolute sizes are scaled for a single-node run (see EXPERIMENTS.md)
// but the four-class scheme and inter-class ratios are preserved.
type Class int

const (
	// Test is very small: only to quickly check that benchmarks work.
	Test Class = iota
	// Small targets about a second of serial time.
	Small
	// Medium is the class used in the paper's evaluation (Tables I/II
	// and all figures), scaled here to a few seconds of serial time.
	Medium
	// Large is the stress class.
	Large
)

var classNames = [...]string{"test", "small", "medium", "large"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// ParseClass converts a class name to a Class.
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if n == s {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown input class %q (want test/small/medium/large)", s)
}

// RunConfig configures one parallel execution of a benchmark version.
type RunConfig struct {
	// Class selects the input class.
	Class Class
	// Version selects the benchmark version (one of Benchmark.Versions).
	Version string
	// Threads is the omp team size (>= 1).
	Threads int
	// CutoffDepth overrides the application's depth-based cut-off
	// value for versions that have one; 0 keeps the app default. It
	// is the knob for the paper's §IV-D cut-off-value study.
	CutoffDepth int
	// RuntimeCutoff is the runtime-level cut-off policy (nil means
	// omp.NoCutoff — the paper's "no-cutoff" configuration relies on
	// whatever the runtime does, which by default is nothing).
	RuntimeCutoff omp.CutoffPolicy
	// Scheduler is the task scheduler's name (one of
	// omp.Schedulers(); "" selects omp.DefaultScheduler). Callers
	// validate user input through omp.NewScheduler before building a
	// RunConfig — TeamOpts panics on unknown names.
	Scheduler string
	// Recorder, when non-nil, records the task graph for simulation.
	Recorder *trace.Recorder
	// Procs, when positive, is the GOMAXPROCS value the run wants —
	// the oversubscription axis (Threads > Procs oversubscribes;
	// Threads < Procs leaves cores for the rest of the process). It is
	// process-global state, so RunConfig only records the request:
	// the executing layer (cmd flags, lab executor) sets and restores
	// it around the run, serializing runs that need different values.
	Procs int
	// PinWorkers wires each team worker to an OS thread for the run
	// (omp.WithPinning) — the other half of the pinning axis.
	PinWorkers bool
}

// TeamOpts assembles the omp options for this configuration.
func (cfg *RunConfig) TeamOpts() []omp.TeamOpt {
	opts := []omp.TeamOpt{omp.WithScheduler(cfg.Scheduler)}
	if cfg.RuntimeCutoff != nil {
		opts = append(opts, omp.WithCutoff(cfg.RuntimeCutoff))
	}
	if cfg.Recorder != nil {
		opts = append(opts, omp.WithRecorder(cfg.Recorder))
	}
	if cfg.PinWorkers {
		opts = append(opts, omp.WithPinning(true))
	}
	return opts
}

// RunResult is the outcome of one parallel execution.
type RunResult struct {
	// Digest is the verification digest; it must match the
	// sequential run's digest (up to the benchmark's Verify rules).
	Digest string
	// Metric is an optional application-specific throughput metric
	// basis (Floorplan reports nodes visited, per §III-B; others 0).
	Metric float64
	// Stats are the runtime statistics of the region.
	Stats *omp.Stats
	// Elapsed is the wall-clock duration of the parallel region.
	Elapsed time.Duration
}

// SeqResult is the outcome of the sequential reference execution.
type SeqResult struct {
	// Digest is the verification digest.
	Digest string
	// Work is the total work in application work units; it
	// calibrates the simulator (WorkUnitNS = Elapsed/Work).
	Work int64
	// Metric mirrors RunResult.Metric for the serial run.
	Metric float64
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// MemBytes estimates the resident size of the main data
	// structures (Table II's memory column).
	MemBytes int64
}

// Profile carries the per-benchmark constants of the simulator's
// bandwidth model, derived from the application's Table II character
// (low arithmetic-per-write ⇒ memory-bound ⇒ early saturation).
type Profile struct {
	// MemFraction is the fraction of work bound by memory bandwidth.
	MemFraction float64
	// BandwidthCap is the number of workers the memory system feeds
	// at full speed.
	BandwidthCap float64
}

// Benchmark is one registered application.
type Benchmark struct {
	// Name is the suite-wide identifier ("fib", "sort", ...).
	Name string

	// Table I metadata.
	Origin         string // "Cilk", "AKM", "Olden", or "-" for in-house
	Domain         string
	Structure      string // computation structure: "Iterative", "At each node", "At leafs"
	TaskDirectives int    // number of task directives in the source
	TasksInside    string // enclosing generator construct: "for", "single", "single/for"
	NestedTasks    bool
	AppCutoff      string // "none" or "depth-based"

	// Extension marks benchmarks beyond the paper's nine (the future
	// work of §V: UTS and Knapsack joined the suite in later BOTS
	// releases). Extensions are excluded from the paper-reproduction
	// artifacts (Tables I–II, Figure 3) and reported separately.
	Extension bool

	// Versions lists the available parallel versions, e.g.
	// "tied", "untied", "if-tied", "manual-untied", "for-tied".
	Versions []string
	// BestVersion is the version the paper's Figure 3 plots.
	BestVersion string

	// Profile parameterizes the simulator's memory model.
	Profile Profile

	// Seq runs the sequential reference implementation.
	Seq func(class Class) (*SeqResult, error)
	// Run runs one parallel version.
	Run func(cfg RunConfig) (*RunResult, error)
	// Verify checks a parallel result against the sequential
	// reference. When nil, digests must be exactly equal.
	Verify func(seq *SeqResult, par *RunResult) error
}

// HasVersion reports whether name is one of b's versions.
func (b *Benchmark) HasVersion(name string) bool {
	for _, v := range b.Versions {
		if v == name {
			return true
		}
	}
	return false
}

// Check verifies par against seq using the benchmark's rules.
func (b *Benchmark) Check(seq *SeqResult, par *RunResult) error {
	if b.Verify != nil {
		return b.Verify(seq, par)
	}
	if seq.Digest != par.Digest {
		return fmt.Errorf("%s: verification failed: parallel digest %s != sequential %s",
			b.Name, par.Digest, seq.Digest)
	}
	return nil
}

var (
	regMu    sync.Mutex
	registry = map[string]*Benchmark{}
)

// Register adds a benchmark to the suite registry. It panics on
// duplicate names or structurally invalid registrations; it is meant
// to be called from package init functions.
func Register(b *Benchmark) {
	if b.Name == "" || b.Seq == nil || b.Run == nil {
		panic("core: incomplete benchmark registration")
	}
	if len(b.Versions) == 0 || b.BestVersion == "" || !b.HasVersion(b.BestVersion) {
		panic(fmt.Sprintf("core: benchmark %q has an invalid version list", b.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("core: duplicate benchmark %q", b.Name))
	}
	registry[b.Name] = b
}

// Get returns the benchmark registered under name.
func Get(name string) (*Benchmark, error) {
	regMu.Lock()
	defer regMu.Unlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown benchmark %q", name)
	}
	return b, nil
}

// All returns every registered benchmark, sorted by name.
func All() []*Benchmark {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Benchmark, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Paper returns the paper's nine applications (extensions excluded),
// sorted by name.
func Paper() []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if !b.Extension {
			out = append(out, b)
		}
	}
	return out
}

// Extensions returns the post-paper extension benchmarks, sorted by
// name.
func Extensions() []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.Extension {
			out = append(out, b)
		}
	}
	return out
}
