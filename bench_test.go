// Package bots holds the suite-level benchmark harness: one testing.B
// benchmark per table and figure of the BOTS paper (Duran et al.,
// ICPP 2009), plus per-application throughput benchmarks on the real
// goroutine runtime. Each BenchmarkTableN/BenchmarkFigN regenerates
// the corresponding artifact through internal/report; run
//
//	go test -bench=. -benchmem
//
// for the quick (small-class) pass, or cmd/botsreport, which prints the
// full-size (medium-class) reproduction; DESIGN.md §1.1 says how the
// figures are reproduced without the paper's machine.
package bots

import (
	"io"
	"testing"

	_ "bots/internal/apps/all"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/omp"
	"bots/internal/report"
	"bots/internal/sim"
	"bots/internal/trace"
)

// benchRunner executes every report cell directly (no store), so each
// benchmark iteration measures the real record-and-simulate pipeline;
// only sequential baselines are cached, as before the lab existed.
var benchRunner = lab.NewDirectRunner()

// benchThreads is a reduced thread axis that keeps bench iterations
// fast while still spanning the scaling range.
var benchThreads = []int{1, 4, 16, 32}

// BenchmarkTable1Metadata regenerates the application summary
// (paper Table I).
func BenchmarkTable1Metadata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table1(io.Discard)
	}
}

// BenchmarkTable2Profile regenerates the per-task application
// characteristics (paper Table II) on the test class.
func BenchmarkTable2Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Table2(benchRunner, io.Discard, core.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Speedups regenerates the overall best-version speedup
// study (paper Figure 3) on the small class.
func BenchmarkFig3Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Fig3(benchRunner, io.Discard, core.Small, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Cutoffs regenerates the NQueens cut-off-mechanism
// comparison (paper Figure 4).
func BenchmarkFig4Cutoffs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Fig4(benchRunner, io.Discard, core.Small, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Tiedness regenerates the tied-vs-untied comparison
// (paper Figure 5).
func BenchmarkFig5Tiedness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Fig5(benchRunner, io.Discard, core.Small, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableAnalysis regenerates the work/span analysis table.
func BenchmarkTableAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.TableAnalysis(benchRunner, io.Discard, core.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensions regenerates the post-paper extension study
// (UTS and Knapsack, the suite additions the paper's §V announces).
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.FigExtensions(benchRunner, io.Discard, core.Test, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCutoffDepth sweeps the depth cut-off value (§IV-D).
func BenchmarkAblationCutoffDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.AblationCutoffDepth(benchRunner, io.Discard, core.Small, 8, []int{4, 8, 12}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPolicy compares local scheduling policies (§IV-D).
func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.AblationPolicy(benchRunner, io.Discard, core.Test, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThreadSwitch runs the §IV-C thread-switching
// counterfactual.
func BenchmarkAblationThreadSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.AblationThreadSwitch(benchRunner, io.Discard, core.Test, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationQueueArch contrasts per-worker deques with a
// serialized central task queue.
func BenchmarkAblationQueueArch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.AblationQueueArch(benchRunner, io.Discard, core.Test, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGenerators compares SparseLU generator schemes
// (§IV-D).
func BenchmarkAblationGenerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.AblationGenerators(benchRunner, io.Discard, core.Test, benchThreads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApps measures the real goroutine runtime executing each
// benchmark's best version on the small class — the wall-clock anchor
// behind the simulated studies.
func BenchmarkApps(b *testing.B) {
	for _, bench := range core.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Run(core.RunConfig{
					Class: core.Small, Version: bench.BestVersion, Threads: 4,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppsSequential measures the sequential references.
func BenchmarkAppsSequential(b *testing.B) {
	for _, bench := range core.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Seq(core.Small); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceAndSimulate measures the full record-and-replay
// pipeline on one benchmark (fib manual, the lightest DAG).
func BenchmarkTraceAndSimulate(b *testing.B) {
	bench, err := core.Get("fib")
	if err != nil {
		b.Fatal(err)
	}
	seq, err := bench.Seq(core.Small)
	if err != nil {
		b.Fatal(err)
	}
	p := lab.SimParams(bench, seq, lab.JobSpec{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder()
		if _, err := bench.Run(core.RunConfig{
			Class: core.Small, Version: "manual-tied", Threads: 8, Recorder: rec,
		}); err != nil {
			b.Fatal(err)
		}
		tr := rec.Finish()
		if _, err := sim.Run(tr, 8, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeTaskSpawn is an EPCC-style microbenchmark of
// deferred task creation + execution throughput.
func BenchmarkRuntimeTaskSpawn(b *testing.B) {
	b.ReportAllocs()
	omp.Parallel(1, func(c *omp.Context) {
		for i := 0; i < b.N; i++ {
			c.Task(func(c *omp.Context) {})
			if i%1024 == 1023 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	})
}

// BenchmarkRuntimeUndeferredTask measures the if(false) fast path.
func BenchmarkRuntimeUndeferredTask(b *testing.B) {
	b.ReportAllocs()
	omp.Parallel(1, func(c *omp.Context) {
		for i := 0; i < b.N; i++ {
			c.Task(func(c *omp.Context) {}, omp.If(false))
		}
	})
}

// BenchmarkRuntimeTaskwait measures taskwait on an empty child set.
func BenchmarkRuntimeTaskwait(b *testing.B) {
	omp.Parallel(1, func(c *omp.Context) {
		for i := 0; i < b.N; i++ {
			c.Taskwait()
		}
	})
}

// BenchmarkRuntimeBarrier measures the task-executing team barrier.
func BenchmarkRuntimeBarrier(b *testing.B) {
	omp.Parallel(4, func(c *omp.Context) {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
	})
}
