package lab_test

import (
	"fmt"
	"testing"

	"bots/internal/lab"
	"bots/internal/omp"
)

// hitCells is n distinct normalized cells spread over every registered
// scheduler and runtime cut-off at one and two threads, the axes the
// lab.sweep cell list varies.
func hitCells(n int) []lab.JobSpec {
	var out []lab.JobSpec
	for v := 0; len(out) < n; v++ {
		for _, policy := range omp.Schedulers() {
			for _, cutoff := range omp.Cutoffs() {
				for threads := 1; threads <= 2; threads++ {
					out = append(out, lab.JobSpec{
						Bench: "fib", Version: fmt.Sprintf("v%d", v), Class: "test",
						Threads: threads, Policy: policy, RuntimeCutoff: cutoff,
					}.Normalize())
				}
			}
		}
	}
	return out[:n]
}

// BenchmarkDispatchAllHit resubmits a sweep whose every cell is
// already stored to one long-lived Dispatcher(1) → CachedRunner over an
// in-memory store: the all-hit half of the lab.sweep workload without
// its executions, including what the dispatcher keeps of each finished
// sweep. Every cell settles at submission with one identity-memo
// lookup and one store lookup and never queues. It reports ns per
// cell, the in-package owner of lab.sweep's rate_per_s, and
// live-B/cell: the live heap left after the run per cell submitted,
// which tends to zero when finished sweeps retire and stays near
// ~200 B (a JobView) when the dispatcher keeps them all. On a 2-CPU
// Xeon VM the 2 080-cell case reads 410–430 ns/cell and 420 KB/op,
// the new sweep's views; a dispatcher that rendered and hashed each
// cell's canonical bytes and copied the views on Wait read 820–950
// ns/cell and 822 KB/op.
//
// The miss sub-benchmarks submit the same cells to a Runner that caches
// nothing and returns at once, so every cell takes the queued path:
// pop, running, done. ns/cell at 2080 cells staying within ~1.2× of
// the 260-cell figure shows the queue pops are O(1).
func BenchmarkDispatchAllHit(b *testing.B) {
	for _, n := range []int{260, 2080} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			cells := hitCells(n)
			runner, exec := allHitRunner(b, cells)
			benchDispatch(b, runner, cells)
			if calls := exec.calls.Load(); calls != 0 {
				b.Fatalf("an all-hit sweep executed %d cells", calls)
			}
		})
	}
	rec := &lab.Record{Verified: true}
	nop := funcRunner(func(lab.JobSpec) (*lab.Record, error) { return rec, nil })
	for _, n := range []int{260, 2080} {
		b.Run(fmt.Sprintf("miss/cells=%d", n), func(b *testing.B) {
			benchDispatch(b, nop, hitCells(n))
		})
	}
}

// benchDispatch resubmits cells as one sweep to a long-lived
// Dispatcher(1) over runner b.N times and reports ns/cell and
// live-B/cell.
func benchDispatch(b *testing.B, runner lab.Runner, cells []lab.JobSpec) {
	d := lab.NewDispatcher(runner, 1, 0)
	defer d.Close()
	before := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := d.SubmitJobs("warm", cells)
		if err != nil {
			b.Fatal(err)
		}
		if st := sw.Wait(); st.Done != len(cells) {
			b.Fatalf("%d of %d cells done", st.Done, len(cells))
		}
	}
	b.StopTimer()
	cellsRun := float64(b.N * len(cells))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cellsRun, "ns/cell")
	b.ReportMetric(float64(int64(liveHeap())-int64(before))/cellsRun, "live-B/cell")
}
