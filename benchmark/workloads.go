package main

import "slices"

// This file is the single source for the benchmark's vocabulary: the
// workload names with their one-line "why", the end-to-end metrics
// with unit, direction and bound, and the per-layer metrics with the
// workloads that measure them. BENCHMARK.json restates it for the
// driver; TestCatalogMatchesBenchmarkJSON fails if the two disagree.

// Threads is the team size of every region, service team and lab cell
// recording run, and the GOMAXPROCS the process pins itself to.
const Threads = 2

// RunSeconds is the measurement window of one run (BENCHMARK.json's
// run_seconds); -seconds overrides it. Every pass count and window in
// the workloads derives from the window, so the set is scaled
// together and never thinned out.
const RunSeconds = 10

// SetupReps is how many times a run repeats its set-up; setup_s is
// the median.
const SetupReps = 3

// A metric is one named number the benchmark prints.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd lists the metrics every untraced run reports, on every
// workload. The driver's contract wants one flat list, so the two
// measured slots are generic and each workload states what they mean
// on it (workload.Time / workload.Rate): time_ms is what one user of
// that path waits, rate_per_s is work completed per second.
//
// The bounds are the contract's widest. Ten runs on ten seeds spread
// 1-5% in a quiet hour of the 2-core sandbox this was written on, but
// the same binary's medians drifted 10-45% between hours (README,
// BASELINE), and a bound below the host's own drift rejects unchanged
// code.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"time_ms", "ms", "lower", 0.25},
	{"rate_per_s", "1/s", "higher", 0.25},
}

// A workloadDef is one catalogue row.
type workloadDef struct {
	Name string
	Why  string // one line, restated in BENCHMARK.json
	Load string // open loop / closed loop / batch, with rate or client count
	Time string // what time_ms means on this workload
	Rate string // what rate_per_s means on this workload
	New  func() workload
}

var workloads = []workloadDef{
	{
		Name: "region.finegrain",
		Why:  "no-cut-off fib and nqueens: ~2.1M near-empty tasks per pass, so omp spawn/taskwait/deque cost is all of the time and apps almost none",
		Load: "batch: 2 warm-up passes, then timed passes over the 3-kernel mix until the window ends",
		Time: "solve_ms: region wall of one pass over fib/none-tied, fib/none-untied, nqueens/none-untied (medium)",
		Rate: "tasks_per_s: sum of Stats.TotalTasks over sum of region wall",
		New: func() workload {
			return newRegion(2, []string{"workfirst"}, ompSpawnProbes,
				kernel{"fib", "none-tied", "medium"},
				kernel{"fib", "none-untied", "medium"},
				kernel{"nqueens", "none-untied", "medium"})
		},
	},
	{
		Name: "region.coarse",
		Why:  "best cut-off versions where kernels do the work and omp little: the bypass workload for spawn-path changes, fully exposed to apps kernel changes",
		Load: "batch: 1 warm-up pass, then timed passes over the 6-kernel mix until the window ends",
		Time: "solve_ms: region wall of one pass over sort, strassen, alignment, fft, nqueens/manual (medium) and sparselu/for (small)",
		Rate: "tasks_per_s: sum of Stats.TotalTasks over sum of region wall",
		New: func() workload {
			return newRegion(1, []string{"workfirst"}, nil,
				kernel{"sort", "untied", "medium"},
				kernel{"strassen", "none-tied", "medium"},
				kernel{"alignment", "untied", "medium"},
				kernel{"fft", "untied", "medium"},
				kernel{"nqueens", "manual-untied", "medium"},
				kernel{"sparselu", "for-tied", "small"})
		},
	},
	{
		Name: "region.irregular",
		Why:  "uts, health and dependence-driven sparselu under all four schedulers: steals, parks, dep release and the shared ring instead of local push/pop",
		Load: "batch: 1 warm-up pass, then timed passes over 3 kernels x 4 schedulers until the window ends",
		Time: "solve_ms: region wall of one pass over uts/large, health/medium, sparselu-dep/small, each under workfirst, breadthfirst, centralized, locality",
		Rate: "tasks_per_s: sum of Stats.TotalTasks over sum of region wall",
		New: func() workload {
			return newRegion(1, schedulers, ompDepProbe,
				kernel{"uts", "manual-untied", "large"},
				kernel{"health", "manual-tied", "medium"},
				kernel{"sparselu", "dep-tied", "small"})
		},
	},
	{
		Name: "region.observed",
		Why:  "benchmark-owned fib(27) and nqueens(11) on the public omp API with the flight recorder and an obs registry attached: the row where obs is on",
		Load: "batch: 2 warm-up passes, then timed passes over the 2 owned kernels until the window ends",
		Time: "solve_ms: region wall of one pass over owned fib(27) + nqueens(11) with omp.WithFlightRecorder(2x4096)",
		Rate: "tasks_per_s: sum of Stats.TotalTasks over sum of region wall",
		New:  func() workload { return &observed{} },
	},
	{
		Name: "serve.open",
		Why:  "service path submit-queue-wake-run on health/test: closed-loop saturation gives per-request cost and capacity; a light open loop checks shedding and feeds per-layer latency",
		Load: "30% of the window open loop, Poisson, 400 req/s in 200-request serve.Run segments; then closed loop, 4 clients each SubmitWait then next",
		Time: "request_ms: median SubmitWait latency a closed-loop client sees at saturation (open-loop latency is per-layer: it is bimodal per process)",
		Rate: "capacity_rps: median over 250 ms slices of closed-loop completions per second",
		New:  func() workload { return &serveOpen{} },
	},
	{
		Name: "lab.sweep",
		Why:  "2080 test-class cells of ~2 ms through Dispatcher(1)-CachedRunner-DirectRunner-Store, cold then all-hit: coordination, store and record+sim cost are visible",
		Load: "batch: cold chunks of 260 cells for 60% of the window (at least one full pass), then all-hit resubmissions of the full list",
		Time: "cell_ms: median over cold chunks of sweep wall per verified record landed (inverse of cold cells_per_s)",
		Rate: "cached_cells_per_s: median over warm passes of cells per second, every cell a store hit",
		New:  func() workload { return &sweep{} },
	},
	{
		Name: "lab.fleet",
		Why:  "the same cells through Dispatcher(64)-RemoteRunner-Fleet over loopback HTTP with journal on and two botsd-default workers: lease protocol, wire, idle poll",
		Load: "fixed window: all cells submitted at once, 2 in-process WorkerClients (capacity 1, default 250 ms poll), cancel at window end",
		Time: "cell_ms: window wall per verified record landed (1000 / cells_per_s; one measurement, both slots)",
		Rate: "cells_per_s: verified records landed in the store over the window up to the last landing",
		New:  func() workload { return &fleet{} },
	},
	{
		Name: "sim.replay",
		Why:  "four recorded traces replayed by sim.Run under 4 schedulers x {2,8,32} threads: the trace-to-sim half, results bit-identical pass to pass",
		Load: "batch: whole passes over the 48-replay matrix until the window ends, no warm-up",
		Time: "pass_ms: wall of one pass over sort, health, uts, sparselu-dep traces x 4 schedulers x 3 thread counts (sum of per-replay medians)",
		Rate: "sim_tasks_per_s: simulated task nodes per second of wall",
		New:  func() workload { return &simReplay{} },
	},
}

// A layerMetric is one per-layer metric: which workloads' traced runs
// measure it and which end-to-end number it should move. On the
// workloads not listed the traced run reports 0 for it (the driver
// wants every per-layer name on every traced run) and the prediction
// is no move.
type layerMetric struct {
	metric
	On    []string // workloads whose traced run measures it; nil means all
	Moves string   // end-to-end metric and workload it should move
}

var regionWorkloads = []string{"region.finegrain", "region.coarse", "region.irregular", "region.observed"}

// schedulers is the discipline axis of region.irregular and sim.replay:
// fixed here, not omp.Schedulers(), so a scheduler added to the product
// does not change what the workloads measure.
var schedulers = []string{"workfirst", "breadthfirst", "centralized", "locality"}

var perLayer = []layerMetric{
	{metric{"trace_overhead", "ratio", "lower", 0}, nil, "traced / untraced time_ms of the same shortened pass; what the spans cost"},

	{metric{"omp.spawn_ns", "ns", "lower", 0}, []string{"region.finegrain"}, "rate_per_s on region.finegrain; not region.coarse"},
	{metric{"omp.spawn_undeferred_ns", "ns", "lower", 0}, []string{"region.finegrain"}, "rate_per_s on region.finegrain (if/cut-off versions elsewhere)"},
	{metric{"omp.taskwait_ns", "ns", "lower", 0}, []string{"region.finegrain"}, "rate_per_s on region.finegrain"},
	{metric{"omp.future_ns", "ns", "lower", 0}, []string{"region.finegrain"}, "rate_per_s on region.finegrain; strassen/future-* cells in lab.sweep"},
	{metric{"omp.region_ns", "ns", "lower", 0}, []string{"region.finegrain"}, "time_ms on region.irregular (sparselu barriers), lab.sweep cells"},
	{metric{"omp.dep_release_ns", "ns", "lower", 0}, []string{"region.irregular"}, "time_ms on region.irregular (sparselu/dep-tied)"},
	{metric{"omp.steal_hit_ratio", "ratio", "higher", 0}, regionWorkloads, "time_ms on region.irregular"},
	{metric{"omp.idle_parks", "count", "lower", 0}, regionWorkloads, "time_ms on region.irregular"},
	{metric{"omp.taskwait_parks", "count", "lower", 0}, regionWorkloads, "time_ms on region.irregular"},
	{metric{"omp.runtime_share", "ratio", "lower", 0}, regionWorkloads, "time_ms: small on region.coarse, near 1 on region.finegrain"},
	{metric{"apps.seq_ms", "ms", "lower", 0}, regionWorkloads, "time_ms on region.coarse"},
	{metric{"apps.speedup", "ratio", "higher", 0}, regionWorkloads, "time_ms on region.coarse"},
	{metric{"obs.flightrec_ratio", "ratio", "lower", 0}, []string{"region.observed"}, "rate_per_s on region.observed; at 1.0 it equals the unobserved rate"},

	{metric{"omp.submit_wake_us", "us", "lower", 0}, []string{"serve.open"}, "time_ms on serve.open"},
	{metric{"serve.latency_mean_ms", "ms", "lower", 0}, []string{"serve.open"}, "open-loop latency at 400 req/s (demoted: two regimes per process, see serve.parks_per_request)"},
	{metric{"serve.parks_per_request", "count", "lower", 0}, []string{"serve.open"}, "which idle regime the process is in: about 3 or about 6"},
	{metric{"serve.latency_p50_ms", "ms", "lower", 0}, []string{"serve.open"}, "open-loop latency (histogram bucket bound, 9% steps)"},
	{metric{"serve.latency_p99_ms", "ms", "lower", 0}, []string{"serve.open"}, "open-loop latency (too few samples past it to hold a bound)"},
	{metric{"serve.queue_p50_ms", "ms", "lower", 0}, []string{"serve.open"}, "time_ms on serve.open"},
	{metric{"serve.service_p50_ms", "ms", "lower", 0}, []string{"serve.open"}, "rate_per_s on serve.open"},
	{metric{"serve.shed_fraction", "ratio", "lower", 0}, []string{"serve.open"}, "failed on serve.open"},
	{metric{"serve.offered_ratio", "ratio", "higher", 0}, []string{"serve.open"}, "generator lateness: below 1 the open loop ran late"},
	{metric{"serve.queue_p99_ms_r1200", "ms", "lower", 0}, []string{"serve.open"}, "queueing under 3x the rate: rises before rate_per_s stops rising"},

	{metric{"lab.exec_ms_per_cell", "ms", "lower", 0}, []string{"lab.sweep", "lab.fleet"}, "time_ms on lab.sweep"},
	{metric{"lab.dispatcher.overhead_us_per_cell", "us", "lower", 0}, []string{"lab.sweep"}, "time_ms on lab.sweep: (wall - sum of exec) / cells"},
	{metric{"lab.cached.hit_us", "us", "lower", 0}, []string{"lab.sweep"}, "rate_per_s on lab.sweep"},
	{metric{"lab.store.put_us", "us", "lower", 0}, []string{"lab.sweep"}, "time_ms on lab.sweep"},
	{metric{"lab.store.open_ms", "ms", "lower", 0}, []string{"lab.sweep"}, "setup_s of anything that reopens a 10k-record store"},
	{metric{"report.render_ms", "ms", "lower", 0}, []string{"lab.sweep"}, "none end to end: fig3 from a warm store"},
	{metric{"lab.exec.record_ms", "ms", "lower", 0}, []string{"lab.sweep"}, "time_ms on lab.sweep"},
	{metric{"trace.record_ratio", "ratio", "lower", 0}, []string{"lab.sweep"}, "time_ms on lab.sweep; no region.* row records"},
	{metric{"lab.exec.sim_ms", "ms", "lower", 0}, []string{"lab.sweep"}, "time_ms on lab.sweep"},

	{metric{"lab.fleet.wire_cell_ms", "ms", "lower", 0}, []string{"lab.fleet"}, "rate_per_s on lab.fleet once idle wait falls"},
	{metric{"lab.fleet.lease_hit_ratio", "ratio", "higher", 0}, []string{"lab.fleet"}, "rate_per_s on lab.fleet"},
	{metric{"lab.fleet.leases_us", "us", "lower", 0}, []string{"lab.fleet"}, "mean server time of POST /leases"},
	{metric{"lab.fleet.results_us", "us", "lower", 0}, []string{"lab.fleet"}, "mean server time of POST /results"},
	{metric{"lab.fleet.requests", "count", "lower", 0}, []string{"lab.fleet"}, "HTTP requests the coordinator served in the traced window"},
	{metric{"lab.journal.append_us", "us", "lower", 0}, []string{"lab.fleet"}, "rate_per_s on lab.fleet; not lab.sweep"},
	{metric{"lab.worker.idle_wait_ms_per_cell", "ms", "lower", 0}, []string{"lab.fleet"}, "rate_per_s on lab.fleet: 2/cells_per_s - exec - wire"},

	{metric{"sim.ns_per_task", "ns", "lower", 0}, []string{"sim.replay"}, "rate_per_s on sim.replay"},
	{metric{"sim.ns_per_task.workfirst", "ns", "lower", 0}, []string{"sim.replay"}, "rate_per_s on sim.replay"},
	{metric{"sim.ns_per_task.breadthfirst", "ns", "lower", 0}, []string{"sim.replay"}, "rate_per_s on sim.replay"},
	{metric{"sim.ns_per_task.centralized", "ns", "lower", 0}, []string{"sim.replay"}, "rate_per_s on sim.replay"},
	{metric{"sim.ns_per_task.locality", "ns", "lower", 0}, []string{"sim.replay"}, "rate_per_s on sim.replay"},
	{metric{"sim.steals", "count", "lower", 0}, []string{"sim.replay"}, "exact count per pass: a change means the replayed schedule changed"},
	{metric{"trace.write_mb_s", "MB/s", "higher", 0}, []string{"sim.replay"}, "none end to end: botstrace record-to-file"},
	{metric{"trace.read_mb_s", "MB/s", "higher", 0}, []string{"sim.replay"}, "none end to end: botstrace file-to-replay"},
	{metric{"trace.analyze_ns_per_task", "ns", "lower", 0}, []string{"sim.replay"}, "time_ms on lab.sweep (every cell analyzes its trace)"},

	// Self time per layer from the traced pass's spans: a span's
	// duration minus what its child spans cover, summed by layer.
	{metric{"self_ms.bench", "ms", "lower", 0}, nil, "the benchmark's own share of the traced pass (generation, verification, waiting)"},
	{metric{"self_ms.apps", "ms", "lower", 0}, nil, "kernel calls (with the omp time inside them; omp.runtime_share splits it)"},
	{metric{"self_ms.omp", "ms", "lower", 0}, nil, "direct omp calls: owned-kernel regions, SubmitWait"},
	{metric{"self_ms.obs", "ms", "lower", 0}, nil, "recorder snapshots and registry scrapes"},
	{metric{"self_ms.serve", "ms", "lower", 0}, nil, "serve.Run, Prepare"},
	{metric{"self_ms.lab.dispatcher", "ms", "lower", 0}, nil, "sweep wall not covered by runner calls"},
	{metric{"self_ms.lab.cached", "ms", "lower", 0}, nil, "CachedRunner minus the runner under it: store get/put, coalescing"},
	{metric{"self_ms.lab.exec", "ms", "lower", 0}, nil, "DirectRunner / Executor.Execute"},
	{metric{"self_ms.lab.fleet", "ms", "lower", 0}, nil, "coordinator HTTP handlers"},
	{metric{"self_ms.trace", "ms", "lower", 0}, nil, "recorded runs, Finish, Validate, Analyze, io"},
	{metric{"self_ms.sim", "ms", "lower", 0}, nil, "sim.Run"},
	{metric{"self_ms.report", "ms", "lower", 0}, nil, "report.Render"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (m layerMetric) on(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}
