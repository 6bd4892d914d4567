package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/omp"
	"bots/internal/report"
	"bots/internal/sim"
	"bots/internal/trace"
)

// chunks is how many sweeps one cold pass over the cell list is cut
// into; each is one cell_ms sample.
const chunks = 8

// cellList generates the sweep cells lab.sweep and lab.fleet share:
// every version of every registered benchmark at class test x threads
// {1,2} x the four schedulers x the five runtime cut-offs — 2080
// distinct cells. The 2-thread cells replay on 8 simulated threads,
// the 1-thread cells on their own team size, so both sim shapes are
// in the mix. floorplan is left out: its pruned search does a
// schedule-dependent amount of work, and the cell mix must cost the
// same on every run.
//
// The list is dealt round-robin into `chunks` strata from its
// canonical order, so every chunk holds the same mix of kernels and
// knobs, and each stratum is then shuffled by the seed.
func cellList(rng *rand.Rand, quick bool) [][]lab.JobSpec {
	var all []lab.JobSpec
	for _, b := range core.All() {
		if b.Name == "floorplan" {
			continue
		}
		versions := b.Versions
		if quick {
			versions = versions[:1]
		}
		for _, v := range versions {
			for _, threads := range []int{1, 2} {
				for _, policy := range omp.Schedulers() {
					for _, cutoff := range omp.Cutoffs() {
						if quick && (policy != omp.DefaultScheduler || cutoff != "none") {
							continue
						}
						simulate := 0
						if threads == 2 {
							simulate = 8
						}
						all = append(all, lab.JobSpec{
							Bench: b.Name, Version: v, Class: "test", Threads: threads,
							Policy: policy, RuntimeCutoff: cutoff, Simulate: simulate,
						}.Normalize())
					}
				}
			}
		}
	}
	n := chunks
	if quick {
		n = 2
	}
	out := make([][]lab.JobSpec, n)
	for i, c := range all {
		out[i%n] = append(out[i%n], c)
	}
	for _, c := range out {
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	return out
}

func flatten(chunked [][]lab.JobSpec) []lab.JobSpec {
	var out []lab.JobSpec
	for _, c := range chunked {
		out = append(out, c...)
	}
	return out
}

// warmExecutor runs the sequential reference of every benchmark in
// cells once, so no timed cell pays for one, and then executes n cells
// and drops the records, so the record-and-replay path (recorder,
// simulator, task pools) has run before the window opens. The n cells
// are those with the smallest keys: the same ones whatever the seed
// shuffled, so set-up costs the same on every run.
func warmExecutor(ex *lab.Executor, cells []lab.JobSpec, n int) error {
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Bench] {
			continue
		}
		seen[c.Bench] = true
		b, err := core.Get(c.Bench)
		if err != nil {
			return err
		}
		if _, err := ex.Baseline(b, core.Test); err != nil {
			return err
		}
	}
	byKey := append([]lab.JobSpec(nil), cells...)
	sort.Slice(byKey, func(i, j int) bool { return byKey[i].Key() < byKey[j].Key() })
	for _, c := range byKey[:min(n, len(byKey))] {
		if _, err := ex.Execute(c); err != nil {
			return err
		}
	}
	return nil
}

// warmCells is how many cells set-up executes to warm an Executor.
const warmCells = 100

// timedRunner wraps a lab.Runner with a span and a running total: the
// outside-in probe of what happens below it. It is only installed in
// traced runs, and only under a one-worker dispatcher, so at most one
// call is in flight and cur is the span a nested wrapper hangs under.
type timedRunner struct {
	next   lab.Runner
	e      *env
	layer  string
	parent func() *span
	cur    atomic.Pointer[span]
	ns     atomic.Int64
	calls  atomic.Int64
}

func (t *timedRunner) Run(spec lab.JobSpec) (*lab.Record, error) {
	return t.RunContext(context.Background(), spec)
}

func (t *timedRunner) RunContext(ctx context.Context, spec lab.JobSpec) (*lab.Record, error) {
	sp := t.e.tr.start(t.parent(), t.layer, "Run "+spec.Bench+"/"+spec.Version)
	t.cur.Store(sp)
	t0 := time.Now()
	rec, err := lab.RunWithContext(ctx, t.next, spec)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	sp.end()
	return rec, err
}

// sweep is lab.sweep.
type sweep struct {
	dir    string
	chunks [][]lab.JobSpec
	all    []lab.JobSpec
	exec   *lab.Executor
	stores int

	warm *lab.Store // the last measure's store, holding every cell

	// From the traced pass's timedRunners, for the probes.
	coldWall, coldExec time.Duration
	coldCells          int64
	hitNS, hitCells    int64
}

func (s *sweep) setup(e *env) (err error) {
	if s.dir, err = e.scratch("sweep"); err != nil {
		return err
	}
	s.chunks = cellList(e.rng, e.quick)
	s.all = flatten(s.chunks)
	s.exec = lab.NewExecutor()
	return warmExecutor(s.exec, s.all, warmCells)
}

// pipeline is one Dispatcher(1) -> CachedRunner -> DirectRunner ->
// Store stack on a fresh store file.
type pipeline struct {
	store  *lab.Store
	disp   *lab.Dispatcher
	outer  *timedRunner // around CachedRunner; nil when untraced
	inner  *timedRunner // around DirectRunner; nil when untraced
	parent *span        // the sweep in flight
}

func (s *sweep) newPipeline(e *env) (*pipeline, error) {
	s.stores++
	store, err := lab.OpenStore(filepath.Join(s.dir, fmt.Sprintf("store%d.jsonl", s.stores)))
	if err != nil {
		return nil, err
	}
	p := &pipeline{store: store}
	var exec lab.Runner = &lab.DirectRunner{Exec: s.exec}
	if e.tr != nil {
		p.inner = &timedRunner{next: exec, e: e, layer: "lab.exec",
			parent: func() *span { return p.outer.cur.Load() }}
		exec = p.inner
	}
	var top lab.Runner = lab.NewCachedRunner(store, exec)
	if e.tr != nil {
		p.outer = &timedRunner{next: top, e: e, layer: "lab.cached",
			parent: func() *span { return p.parent }}
		top = p.outer
	}
	p.disp = lab.NewDispatcher(top, 1, 0)
	return p, nil
}

func (p *pipeline) close() error {
	p.disp.Close()
	return p.store.Close()
}

// submit runs cells as one sweep and checks it: every cell done, every
// record in the store and verified. It returns the sweep's wall.
func (p *pipeline) submit(e *env, name string, cells []lab.JobSpec) (time.Duration, error) {
	p.parent = e.tr.start(e.root, "lab.dispatcher", "sweep "+name)
	t0 := time.Now()
	sw, err := p.disp.SubmitJobs(name, cells)
	if err != nil {
		return 0, err
	}
	st := sw.Wait()
	wall := time.Since(t0)
	p.parent.end()
	e.checkN(int64(len(cells)), countBad(p.store, cells, st), "cells failed, lost or unverified")
	return wall, nil
}

// countBad is how many of cells did not end as a verified record in
// store.
func countBad(store *lab.Store, cells []lab.JobSpec, st lab.SweepStatus) int64 {
	bad := int64(len(cells) - st.Done)
	for _, j := range st.Jobs {
		if j.Status != lab.JobDone {
			continue
		}
		if rec, ok := store.Get(j.Key); !ok || !rec.Verified {
			bad++
		}
	}
	return bad
}

func (s *sweep) measure(e *env) error {
	// Cold: chunk after chunk into a fresh store. One full pass
	// always; then more chunks, into the next store, until 60% of the
	// window is gone.
	start, cold := time.Now(), e.window*6/10
	var first *pipeline
	for first == nil || time.Since(start) < cold {
		p, err := s.newPipeline(e)
		if err != nil {
			return err
		}
		for i, c := range s.chunks {
			if first != nil && time.Since(start) >= cold {
				break
			}
			wall, err := p.submit(e, fmt.Sprintf("cold %d", i), c)
			if err != nil {
				return err
			}
			e.timeMS = append(e.timeMS, ms(wall)/float64(len(c)))
			if p.inner != nil {
				s.coldWall += wall
				s.coldCells += int64(len(c))
			}
		}
		if p.inner != nil {
			s.coldExec += time.Duration(p.inner.ns.Load())
		}
		if first == nil {
			first = p
		} else if err := p.close(); err != nil {
			return err
		}
	}

	// Warm: the whole list again, every cell a hit in the first store.
	var hitNS, hitCalls int64
	if first.outer != nil {
		hitNS, hitCalls = first.outer.ns.Load(), first.outer.calls.Load()
	}
	for n := 0; n < 3 || time.Since(start) < e.window; n++ {
		wall, err := first.submit(e, "warm", s.all)
		if err != nil {
			return err
		}
		e.rates = append(e.rates, float64(len(s.all))/wall.Seconds())
	}
	if first.outer != nil {
		s.hitNS = first.outer.ns.Load() - hitNS
		s.hitCells = first.outer.calls.Load() - hitCalls
	}

	// Keep the full store for the probes; an earlier measure's goes.
	first.disp.Close()
	if s.warm != nil {
		if err := s.warm.Close(); err != nil {
			return err
		}
	}
	s.warm = first.store
	return nil
}

func (s *sweep) probes(e *env) error {
	cells := float64(s.coldCells)
	e.layer("lab.exec_ms_per_cell", ms(s.coldExec)/cells)
	e.layer("lab.dispatcher.overhead_us_per_cell", float64(s.coldWall-s.coldExec)/1e3/cells)
	e.layer("lab.cached.hit_us", float64(s.hitNS)/1e3/float64(s.hitCells))

	if err := s.storeProbes(e); err != nil {
		return err
	}
	if err := s.execSteps(e); err != nil {
		return err
	}

	// fig3 from the warm store: the first render measures what the
	// sweep did not hold (floorplan, the 2-on-2 replays), the second
	// is the figure.
	var render time.Duration
	runner := lab.NewCachedRunner(s.warm, &lab.DirectRunner{Exec: s.exec})
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		sp := e.tr.start(e.root, "report", "Render fig3")
		t0 := time.Now()
		err := report.Render(runner, &buf, "fig3", core.Test, []int{1, 2})
		render = time.Since(t0)
		sp.end()
		if err == nil && buf.Len() == 0 {
			err = fmt.Errorf("fig3 rendered nothing")
		}
		e.check(err)
	}
	e.layer("report.render_ms", ms(render))
	return nil
}

// storeProbes times Store.Put and OpenStore directly, on records the
// sweep produced.
func (s *sweep) storeProbes(e *env) error {
	recs := s.warm.Records()
	path := filepath.Join(s.dir, "probe.jsonl")
	st, err := lab.OpenStore(path)
	if err != nil {
		return err
	}
	// 10k records for the reopen: the sweep's records under fresh keys.
	target := 10000
	if e.quick {
		target = 200
	}
	sp := e.tr.start(e.root, "lab.store", "Put")
	var putNS time.Duration
	n := 0
	for round := 0; n < target; round++ {
		for _, r := range recs {
			cp := *r
			cp.Key = fmt.Sprintf("%s-%d", r.Key, round)
			t0 := time.Now()
			err := st.Put(&cp)
			putNS += time.Since(t0)
			if err != nil {
				return err
			}
			if n++; n == target {
				break
			}
		}
	}
	sp.end()
	e.layer("lab.store.put_us", float64(putNS)/1e3/float64(n))
	if err := st.Close(); err != nil {
		return err
	}
	sp = e.tr.start(e.root, "lab.store", "OpenStore 10k")
	t0 := time.Now()
	st, err = lab.OpenStore(path)
	open := time.Since(t0)
	sp.end()
	if err != nil {
		return err
	}
	if st.Len() != n {
		err = fmt.Errorf("reopened store holds %d records, wrote %d", st.Len(), n)
	}
	e.check(err)
	e.layer("lab.store.open_ms", ms(open))
	return st.Close()
}

// execSteps replays what Executor.Execute does for a cell through the
// public calls of core, trace and sim, on the first chunk's specs: a
// bare run, a recorded run, validation and analysis, the simulated
// replay.
func (s *sweep) execSteps(e *env) error {
	var bare, recorded, recordMS, simMS time.Duration
	cells := s.chunks[0]
	for _, spec := range cells {
		b, err := core.Get(spec.Bench)
		if err != nil {
			return err
		}
		cutoff, err := omp.NewCutoff(spec.RuntimeCutoff)
		if err != nil {
			return err
		}
		cfg := core.RunConfig{
			Class: core.Test, Version: spec.Version, Threads: spec.Threads,
			RuntimeCutoff: cutoff, Scheduler: spec.Policy,
		}
		sp := e.tr.start(e.root, "apps", "Benchmark.Run "+spec.Bench+"/"+spec.Version)
		res, err := b.Run(cfg)
		sp.end()
		if err != nil {
			return err
		}
		bare += res.Elapsed

		sp = e.tr.start(e.root, "trace", "recorded Run + Finish + Validate + Analyze")
		t0 := time.Now()
		cfg.Recorder = trace.NewRecorder()
		res, err = b.Run(cfg)
		if err != nil {
			return err
		}
		tr := cfg.Recorder.Finish()
		err = tr.Validate()
		trace.Analyze(tr)
		recordMS += time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		recorded += res.Elapsed

		seq, err := s.exec.Baseline(b, core.Test)
		if err != nil {
			return err
		}
		p := sim.DefaultOverheads()
		p.WorkUnitNS = float64(seq.Elapsed.Nanoseconds()) / float64(seq.Work)
		p.MemFraction, p.BandwidthCap = b.Profile.MemFraction, b.Profile.BandwidthCap
		p.Scheduler = spec.Policy
		sp = e.tr.start(e.root, "sim", "Run")
		t0 = time.Now()
		_, err = sim.Run(tr, spec.Simulate, p)
		simMS += time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
	}
	n := float64(len(cells))
	e.layer("lab.exec.record_ms", ms(recordMS)/n)
	e.layer("lab.exec.sim_ms", ms(simMS)/n)
	e.layer("trace.record_ratio", float64(recorded)/float64(bare))
	return nil
}

func (s *sweep) close() error {
	var err error
	if s.warm != nil {
		err = s.warm.Close()
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}
