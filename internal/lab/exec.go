package lab

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/omp"
	"bots/internal/sim"
	"bots/internal/trace"
)

// Executor turns a JobSpec into a Record by actually running the
// experiment: sequential baseline (cached per bench/class), parallel
// recording run on the real runtime, verification, and simulated
// replay under the calibrated cost model. It is safe for concurrent
// use; concurrent jobs of one sweep share the baseline cache.
type Executor struct {
	mu        sync.Mutex
	baselines map[string]*baselineEntry

	// quiet serializes sequential baselines against parallel runs:
	// a baseline holds it exclusively (nothing else executes while it
	// is timed, since its elapsed/work ratio calibrates the
	// simulator's WorkUnitNS and is frozen into every cached record),
	// while parallel recording runs share it (their wall-clock is not
	// used for speedups, only their trace).
	quiet sync.RWMutex

	// executions counts parallel benchmark executions performed, the
	// observable the "second render is all cache hits" guarantee is
	// stated in terms of.
	executions atomic.Int64
}

type baselineEntry struct {
	once sync.Once
	res  *core.SeqResult
	err  error
}

// NewExecutor returns an Executor with an empty baseline cache.
func NewExecutor() *Executor {
	return &Executor{baselines: map[string]*baselineEntry{}}
}

// Executions returns the number of parallel benchmark runs performed
// so far (sequential baselines are not counted).
func (e *Executor) Executions() int64 { return e.executions.Load() }

// Baseline returns the cached sequential reference for bench/class,
// running it once on first use. Concurrent callers for the same cell
// block on a single run.
func (e *Executor) Baseline(b *core.Benchmark, class core.Class) (*core.SeqResult, error) {
	key := b.Name + "/" + class.String()
	e.mu.Lock()
	ent, ok := e.baselines[key]
	if !ok {
		ent = &baselineEntry{}
		e.baselines[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		e.quiet.Lock()
		defer e.quiet.Unlock()
		ent.res, ent.err = b.Seq(class)
	})
	return ent.res, ent.err
}

// SimParams is the one calibration from a benchmark run to the
// simulator's cost model: default overheads, the job's overrides, the
// benchmark's memory profile, the job's scheduler, and the work-unit
// cost measured by the sequential baseline (1 ns when the baseline
// measured no work or no time).
func SimParams(b *core.Benchmark, seq *core.SeqResult, spec JobSpec) sim.Params {
	p := sim.DefaultOverheads()
	if o := spec.Overheads; o != nil {
		p.ThreadSwitch = o.ThreadSwitch
		p.SwitchNS = o.SwitchNS
		p.QueueSerializeNS = o.QueueSerializeNS
	}
	p.WorkUnitNS = 1
	if seq.Work > 0 && seq.Elapsed > 0 {
		p.WorkUnitNS = float64(seq.Elapsed.Nanoseconds()) / float64(seq.Work)
	}
	p.MemFraction = b.Profile.MemFraction
	p.BandwidthCap = b.Profile.BandwidthCap
	p.Scheduler = spec.Policy
	return p
}

// ExecuteContext is Execute with a cancellation point at the top: a
// cell cancelled while queued never starts its recording run. A run
// already in flight is never interrupted — a Record is all-or-nothing
// (a half-measured cell would poison the content-addressed store), so
// cancellation mid-execution means the result is completed and then
// discarded by the caller.
func (e *Executor) ExecuteContext(ctx context.Context, spec JobSpec) (*Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Execute(spec)
}

// Execute runs one experiment cell end to end. A verification
// mismatch is an outcome, not an execution failure: the record comes
// back with Verified=false and no error, so sweeps surface bad cells
// instead of aborting on them.
func (e *Executor) Execute(spec JobSpec) (*Record, error) {
	spec, key := spec.identify()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Validate resolved each of these names.
	b, _ := core.Get(spec.Bench)
	class, _ := core.ParseClass(spec.Class)
	rtCutoff, _ := omp.NewCutoff(spec.RuntimeCutoff)

	seq, err := e.Baseline(b, class)
	if err != nil {
		return nil, fmt.Errorf("lab: %s/%s baseline: %w", spec.Bench, spec.Class, err)
	}

	rec := trace.NewRecorder()
	e.executions.Add(1)
	cfg := core.RunConfig{
		Class:         class,
		Version:       spec.Version,
		Threads:       spec.Threads,
		CutoffDepth:   spec.CutoffDepth,
		RuntimeCutoff: rtCutoff,
		Scheduler:     spec.Policy,
		Recorder:      rec,
		Procs:         spec.Procs,
		PinWorkers:    spec.Pin,
	}
	var res *core.RunResult
	if spec.Procs > 0 {
		// GOMAXPROCS is process-global, so an oversubscription cell
		// runs exclusively — the quiet lock already serializes timed
		// baselines against everything else, and taking it exclusively
		// here extends that guarantee to the altered-procs window. The
		// value is restored before other cells may start.
		err = func() error {
			e.quiet.Lock()
			defer e.quiet.Unlock()
			old := runtime.GOMAXPROCS(spec.Procs)
			defer runtime.GOMAXPROCS(old)
			var rerr error
			res, rerr = b.Run(cfg)
			return rerr
		}()
	} else {
		e.quiet.RLock()
		res, err = b.Run(cfg)
		e.quiet.RUnlock()
	}
	if err != nil {
		return nil, fmt.Errorf("lab: running %s/%s on %d threads: %w",
			spec.Bench, spec.Version, spec.Threads, err)
	}
	tr := rec.Finish()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("lab: %s/%s trace: %w", spec.Bench, spec.Version, err)
	}
	simRes, err := sim.Run(tr, spec.Simulate, SimParams(b, seq, spec))
	if err != nil {
		return nil, fmt.Errorf("lab: simulating %s/%s on %d threads: %w",
			spec.Bench, spec.Version, spec.Simulate, err)
	}
	analysis := trace.Analyze(tr)

	out := &Record{
		Key:       key,
		Spec:      spec,
		Host:      CurrentHost(),
		CreatedAt: time.Now().UTC(),
		Seq: SeqSummary{
			ElapsedNS: seq.Elapsed.Nanoseconds(),
			Work:      seq.Work,
			MemBytes:  seq.MemBytes,
			Metric:    seq.Metric,
		},
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Metric:    res.Metric,
		Stats:     res.Stats,
		Tasks:     tr.NumTasks(),
		Analysis:  &analysis,
		Sim:       summarizeSim(simRes),
		Verified:  true,
	}
	if err := b.Check(seq, res); err != nil {
		out.Verified = false
		out.VerifyError = err.Error()
	}
	return out, nil
}
