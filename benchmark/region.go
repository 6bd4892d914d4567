package main

import (
	"fmt"
	"time"

	_ "bots/internal/apps/all" // kernels resolve through the core registry
	"bots/internal/core"
	"bots/internal/omp"
)

// kernel names one registered benchmark version at one input class.
type kernel struct{ bench, version, class string }

// regionWorkload is the shared body of region.finegrain, .coarse and
// .irregular: a fixed mix of registered kernels run through
// core.Benchmark.Run on a 2-thread team, every result checked against
// the sequential digest from set-up.
type regionWorkload struct {
	warmups int
	scheds  []string
	probe   func(*env) // the omp micro-probes this mix is made of, if any
	kernels []kernel

	runs []regionRun // kernels x schedulers: one pass, in canonical order
	seq  map[string]*core.SeqResult

	// Accumulated over timed passes, for the probes.
	seqNS, parNS time.Duration
	stats        omp.Stats
	timedPasses  int
}

type regionRun struct {
	k     kernel
	b     *core.Benchmark
	class core.Class
	sched string
}

// newRegion builds a region workload that crosses the kernels with
// scheds.
func newRegion(warmups int, scheds []string, probe func(*env), kernels ...kernel) *regionWorkload {
	return &regionWorkload{warmups: warmups, scheds: scheds, probe: probe, kernels: kernels}
}

func seqKey(b *core.Benchmark, c core.Class) string { return b.Name + "/" + c.String() }

func (r *regionWorkload) setup(e *env) error {
	r.seq = map[string]*core.SeqResult{}
	r.runs = nil
	for _, k := range r.kernels {
		b, err := core.Get(k.bench)
		if err != nil {
			return err
		}
		if !b.HasVersion(k.version) {
			return fmt.Errorf("%s has no version %q", k.bench, k.version)
		}
		name := k.class
		if e.quick {
			name = "test"
		}
		class, err := core.ParseClass(name)
		if err != nil {
			return err
		}
		if _, ok := r.seq[seqKey(b, class)]; !ok {
			seq, err := b.Seq(class)
			if err != nil {
				return fmt.Errorf("%s/%s sequential baseline: %w", k.bench, name, err)
			}
			r.seq[seqKey(b, class)] = seq
		}
		for _, s := range r.scheds {
			r.runs = append(r.runs, regionRun{k, b, class, s})
		}
	}
	return nil
}

func (r *regionWorkload) measure(e *env) error {
	return passes(e, r.warmups, func(timed bool) error {
		ps := e.tr.start(e.root, "bench", "pass")
		defer ps.end()
		var tasks int64
		var passWall time.Duration
		// The seed drives kernel order within a pass.
		for _, i := range e.rng.Perm(len(r.runs)) {
			run := r.runs[i]
			label := fmt.Sprintf("%s/%s/%s %s", run.k.bench, run.k.version, run.class, run.sched)
			sp := e.tr.start(ps, "apps", "Benchmark.Run "+label)
			res, err := run.b.Run(core.RunConfig{
				Class:     run.class,
				Version:   run.k.version,
				Threads:   Threads,
				Scheduler: run.sched,
			})
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			// Verification is outside the timed quantity: the sample is
			// the region's own wall clock.
			seq := r.seq[seqKey(run.b, run.class)]
			sp = e.tr.start(ps, "apps", "Benchmark.Check "+label)
			e.check(run.b.Check(seq, res))
			sp.end()
			if !timed {
				continue
			}
			passWall += res.Elapsed
			tasks += res.Stats.TotalTasks()
			r.seqNS += seq.Elapsed
			r.parNS += res.Elapsed
			addStats(&r.stats, res.Stats)
		}
		if timed {
			e.timeMS = append(e.timeMS, ms(passWall))
			e.rates = append(e.rates, float64(tasks)/passWall.Seconds())
			r.timedPasses++
		}
		return nil
	})
}

func addStats(sum *omp.Stats, s *omp.Stats) {
	sum.StealAttempts += s.StealAttempts
	sum.StealFails += s.StealFails
	sum.IdleParks += s.IdleParks
	sum.TaskwaitParks += s.TaskwaitParks
}

// regionLayers reports the metrics every region.* workload derives
// from the sequential baselines and the Stats its timed passes
// returned: counts are per pass.
func regionLayers(e *env, seq, par time.Duration, st omp.Stats, passes int) {
	p := float64(passes)
	e.layer("apps.seq_ms", ms(seq)/p)
	e.layer("apps.speedup", float64(seq)/float64(par))
	e.layer("omp.runtime_share", 1-float64(seq)/(Threads*float64(par)))
	if st.StealAttempts > 0 {
		e.layer("omp.steal_hit_ratio", 1-float64(st.StealFails)/float64(st.StealAttempts))
	}
	e.layer("omp.idle_parks", float64(st.IdleParks)/p)
	e.layer("omp.taskwait_parks", float64(st.TaskwaitParks)/p)
}

func (r *regionWorkload) probes(e *env) error {
	regionLayers(e, r.seqNS, r.parNS, r.stats, r.timedPasses)
	if r.probe != nil {
		r.probe(e)
	}
	return nil
}

func (r *regionWorkload) close() error { return nil }

// probeN is the operation count of one micro-probe sample; probeReps
// samples are taken and the median reported.
const (
	probeN    = 1 << 15
	probeReps = 7
)

// probe times fn(n) probeReps times on a 1-thread team (no stealing,
// so the cost is the owner's path alone) and returns median ns/op.
func probe(e *env, name string, fn func(c *omp.Context, n int)) float64 {
	n := probeN
	if e.quick {
		n = 1 << 10
	}
	sp := e.tr.start(e.root, "omp", "probe "+name)
	defer sp.end()
	var samples []float64
	for i := 0; i < probeReps; i++ {
		var el time.Duration
		omp.Parallel(1, func(c *omp.Context) {
			t0 := time.Now()
			fn(c, n)
			el = time.Since(t0)
		})
		samples = append(samples, float64(el)/float64(n))
	}
	return median(samples)
}

func noop(*omp.Context) {}

// ompSpawnProbes measures the spawn-path costs region.finegrain is
// made of: noop tasks in batches of 64 so the deque stays shallow.
func ompSpawnProbes(e *env) {
	e.layer("omp.spawn_ns", probe(e, "spawn", func(c *omp.Context, n int) {
		for i := 0; i < n; i++ {
			c.Task(noop)
			if i%64 == 63 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	}))
	e.layer("omp.spawn_undeferred_ns", probe(e, "spawn undeferred", func(c *omp.Context, n int) {
		for i := 0; i < n; i++ {
			c.Task(noop, omp.If(false))
		}
	}))
	e.layer("omp.taskwait_ns", probe(e, "taskwait", func(c *omp.Context, n int) {
		for i := 0; i < n; i++ {
			c.Taskwait()
		}
	}))
	e.layer("omp.future_ns", probe(e, "future", func(c *omp.Context, n int) {
		one := func(*omp.Context) int { return 1 }
		var fs [64]*omp.Future[int]
		for i := 0; i < n; i++ {
			fs[i%64] = omp.Spawn(c, one)
			if i%64 == 63 {
				for _, f := range fs {
					f.Wait(c)
				}
			}
		}
		c.Taskwait()
	}))

	n := 2000
	if e.quick {
		n = 50
	}
	sp := e.tr.start(e.root, "omp", "probe empty region")
	var samples []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			omp.Parallel(Threads, noop)
		}
		samples = append(samples, float64(time.Since(t0))/float64(n))
	}
	sp.end()
	e.layer("omp.region_ns", median(samples))
}

// ompDepProbe measures a dependence chain: each task InOut's the same
// object, so each is held at creation and released by its
// predecessor's finish.
func ompDepProbe(e *env) {
	e.layer("omp.dep_release_ns", probe(e, "dep chain", func(c *omp.Context, n int) {
		var x int
		for i := 0; i < n; i++ {
			c.Task(noop, omp.InOut(&x))
			if i%64 == 63 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	}))
}
