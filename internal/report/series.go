// Package report regenerates the paper's evaluation artifacts: the
// application summary (Table I), the per-task application
// characteristics (Table II), the overall speedup study (Figure 3),
// the cut-off mechanism comparison (Figure 4), the tied-vs-untied
// comparison (Figure 5), and the §IV-D ablations (cut-off values,
// scheduling policies, generator schemes).
//
// Speedup series are produced by the trace-and-simulate pipeline
// described in DESIGN.md: the real omp runtime executes a version on
// a T-thread team while recording its task graph, and the
// discrete-event simulator replays the graph on T virtual threads
// under a calibrated cost model. The serial baseline is the measured
// sequential run, exactly as the paper computes its speedups (with
// Floorplan's nodes-per-second substitution handled by the invariant
// node set of a recorded trace).
//
// Every experiment cell is requested through a lab.Runner, so a
// store-backed runner turns repeated renders into pure cache reads
// and a dispatcher-backed sweep can pre-populate the store; the
// report layer itself never runs a benchmark.
package report

import (
	"fmt"
	"runtime"
	"sync"

	"bots/internal/core"
	"bots/internal/lab"
)

// PaperThreads is the thread axis of the paper's figures.
var PaperThreads = []int{1, 2, 4, 8, 16, 24, 32}

// SeriesPoint is one (threads, speedup) sample with its provenance.
type SeriesPoint struct {
	Threads int
	Speedup float64
	// Tasks is the number of explicit tasks in the recorded trace.
	Tasks int
	// Steals and Parks expose the simulated scheduler's behaviour.
	Steals, Parks int64
}

// Series is one labelled speedup curve.
type Series struct {
	Label  string
	Points []SeriesPoint
}

// SeriesConfig configures a speedup-series computation.
type SeriesConfig struct {
	Class core.Class
	// Threads is the thread axis; nil means PaperThreads.
	Threads []int
	// CutoffDepth overrides the app depth cut-off (0 = default).
	CutoffDepth int
	// RuntimeCutoff is the runtime cut-off policy name for the real
	// recording run (an omp.Cutoffs() name; "" = none).
	RuntimeCutoff string
	// Policy is the scheduler's name (an omp.Schedulers()
	// name; "" = workfirst). It selects both the real runtime
	// scheduler and the simulator's matching queue discipline.
	Policy string
	// Overheads optionally overrides the simulator cost-model knobs
	// that are part of a cell's identity (thread switching, central
	// queue); nil keeps sim.DefaultOverheads.
	Overheads *lab.SimOverrides
}

// JobFor maps one point of a series onto its lab experiment cell.
func JobFor(b *core.Benchmark, version string, threads int, cfg SeriesConfig) lab.JobSpec {
	return lab.JobSpec{
		Bench:         b.Name,
		Version:       version,
		Class:         cfg.Class.String(),
		Threads:       threads,
		CutoffDepth:   cfg.CutoffDepth,
		RuntimeCutoff: cfg.RuntimeCutoff,
		Policy:        cfg.Policy,
		Overheads:     cfg.Overheads,
	}.Normalize()
}

// pointSem bounds concurrent cell executions requested by the report
// layer, so rendering a figure fans its cells across the host without
// oversubscribing it when the runner has to actually measure.
var pointSem = make(chan struct{}, max(2, runtime.GOMAXPROCS(0)))

// SpeedupSeries obtains one benchmark version's speedup curve across
// the thread axis from the runner. Points are requested concurrently;
// with a cached runner, previously measured cells cost nothing.
func SpeedupSeries(r lab.Runner, b *core.Benchmark, version string, cfg SeriesConfig) (Series, error) {
	if !b.HasVersion(version) {
		return Series{}, fmt.Errorf("report: %s has no version %q", b.Name, version)
	}
	threads := cfg.Threads
	if threads == nil {
		threads = PaperThreads
	}
	s := Series{
		Label:  fmt.Sprintf("%s (%s)", b.Name, version),
		Points: make([]SeriesPoint, len(threads)),
	}
	errs := make([]error, len(threads))
	var wg sync.WaitGroup
	for i, t := range threads {
		wg.Add(1)
		go func(i, t int) {
			defer wg.Done()
			pointSem <- struct{}{}
			defer func() { <-pointSem }()
			rec, err := r.Run(JobFor(b, version, t, cfg))
			if err != nil {
				errs[i] = fmt.Errorf("report: %s/%s on %d threads: %w", b.Name, version, t, err)
				return
			}
			if !rec.Verified {
				errs[i] = fmt.Errorf("report: %s/%s on %d threads failed verification: %s",
					b.Name, version, t, rec.VerifyError)
				return
			}
			p := SeriesPoint{Threads: t, Tasks: rec.Tasks}
			if rec.Sim != nil {
				p.Speedup = rec.Sim.Speedup
				p.Steals = rec.Sim.Steals
				p.Parks = rec.Sim.Parks
			}
			s.Points[i] = p
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Series{}, err
		}
	}
	return s, nil
}
