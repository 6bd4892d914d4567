package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"bots/internal/core"
	"bots/internal/sim"
	"bots/internal/trace"
)

// simReplay is sim.replay: four task graphs recorded once in set-up on
// a 2-thread team, then replayed by sim.Run under every scheduler
// discipline at 2, 8 and 32 virtual threads.
type simReplay struct {
	traces []recorded
	want   map[string]sim.Result // first result per replay; later passes must match it exactly

	// From the traced pass, for the probes.
	nsBySched    map[string]time.Duration
	tasksBySched map[string]int64
	steals       int64
}

type recorded struct {
	k  kernel
	tr *trace.Trace
}

var (
	simKernels = []kernel{
		{"sort", "untied", "medium"},
		{"health", "manual-tied", "medium"},
		{"uts", "manual-untied", "large"},
		{"sparselu", "dep-tied", "medium"},
	}
	simThreads = []int{2, 8, 32}
)

func (s *simReplay) setup(e *env) error {
	s.want = map[string]sim.Result{}
	s.traces = nil
	for _, k := range simKernels {
		b, err := core.Get(k.bench)
		if err != nil {
			return err
		}
		name := k.class
		if e.quick {
			name = "test"
		}
		class, err := core.ParseClass(name)
		if err != nil {
			return err
		}
		rec := trace.NewRecorder()
		if _, err := b.Run(core.RunConfig{Class: class, Version: k.version, Threads: Threads, Recorder: rec}); err != nil {
			return fmt.Errorf("recording %s/%s/%s: %w", k.bench, k.version, name, err)
		}
		tr := rec.Finish()
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("recorded %s/%s/%s: %w", k.bench, k.version, name, err)
		}
		s.traces = append(s.traces, recorded{k, tr})
	}
	return nil
}

func (s *simReplay) measure(e *env) error {
	s.nsBySched, s.tasksBySched = map[string]time.Duration{}, map[string]int64{}
	walls := map[string][]float64{} // per replay: its wall in every pass, ms
	var tasks int64                 // task nodes replayed in one pass
	n := 0                          // passes run
	err := passes(e, 0, func(bool) error {
		ps := e.tr.start(e.root, "bench", "pass")
		defer ps.end()
		tasks, s.steals = 0, 0
		n++
		for _, r := range s.traces {
			for _, sched := range schedulers {
				for _, threads := range simThreads {
					p := sim.DefaultOverheads()
					p.WorkUnitNS = 1
					p.Scheduler = sched
					id := fmt.Sprintf("%s %s x%d", r.k.bench, sched, threads)
					sp := e.tr.start(ps, "sim", "Run "+id)
					t0 := time.Now()
					res, err := sim.Run(r.tr, threads, p)
					el := time.Since(t0)
					sp.end()
					if err != nil {
						return fmt.Errorf("sim %s: %w", id, err)
					}
					// A replay is a pure function of trace, team size
					// and parameters: any pass-to-pass difference is a
					// failure.
					want, seen := s.want[id]
					if !seen {
						s.want[id] = res
					} else if res != want {
						err = fmt.Errorf("sim %s is not deterministic: %v, then %v", id, want, res)
					}
					e.check(err)
					walls[id] = append(walls[id], ms(el))
					tasks += int64(r.tr.NumTasks())
					s.nsBySched[sched] += el
					s.tasksBySched[sched] += int64(r.tr.NumTasks())
					s.steals += res.Steals
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A pass is seconds long and a window holds three or four, so a host
	// stall of a second would move the median pass. Sample i is instead
	// made of every replay's i-th fastest run: the median sample is then
	// the sum of the per-replay medians, which a stall that lands on
	// different replays in different passes does not move.
	for _, w := range walls {
		sort.Float64s(w)
	}
	for i := 0; i < n; i++ {
		var passMS float64
		for _, w := range walls {
			passMS += w[i]
		}
		e.timeMS = append(e.timeMS, passMS)
		e.rates = append(e.rates, float64(tasks)/(passMS/1e3))
	}
	return nil
}

func (s *simReplay) probes(e *env) error {
	var ns time.Duration
	var tasks int64
	for _, sched := range schedulers {
		e.layer("sim.ns_per_task."+sched, float64(s.nsBySched[sched])/float64(s.tasksBySched[sched]))
		ns += s.nsBySched[sched]
		tasks += s.tasksBySched[sched]
	}
	e.layer("sim.ns_per_task", float64(ns)/float64(tasks))
	e.layer("sim.steals", float64(s.steals))

	// Trace io and analysis, per call, over the four traces.
	var bytesN int64
	var write, read, analyze time.Duration
	tasks = 0
	for _, r := range s.traces {
		var buf bytes.Buffer
		sp := e.tr.start(e.root, "trace", "WriteTo "+r.k.bench)
		t0 := time.Now()
		n, err := r.tr.WriteTo(&buf)
		write += time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		bytesN += n
		sp = e.tr.start(e.root, "trace", "ReadTrace "+r.k.bench)
		t0 = time.Now()
		back, err := trace.ReadTrace(&buf)
		read += time.Since(t0)
		sp.end()
		if err == nil && back.NumTasks() != r.tr.NumTasks() {
			err = fmt.Errorf("%s trace read back %d tasks, wrote %d", r.k.bench, back.NumTasks(), r.tr.NumTasks())
		}
		e.check(err)
		sp = e.tr.start(e.root, "trace", "Analyze "+r.k.bench)
		t0 = time.Now()
		trace.Analyze(r.tr)
		analyze += time.Since(t0)
		sp.end()
		tasks += int64(r.tr.NumTasks())
	}
	e.layer("trace.write_mb_s", float64(bytesN)/1e6/write.Seconds())
	e.layer("trace.read_mb_s", float64(bytesN)/1e6/read.Seconds())
	e.layer("trace.analyze_ns_per_task", float64(analyze)/float64(tasks))
	return nil
}

func (s *simReplay) close() error { return nil }
