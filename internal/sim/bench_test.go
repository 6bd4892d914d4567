package sim

import (
	"fmt"
	"testing"

	"bots/internal/trace"
)

// BenchmarkRun replays the digest corpus under the four disciplines at
// 2, 8 and 32 virtual threads — the team sizes of the sim.replay
// workload — and reports ns per replayed task, the in-package owner of
// that workload's sim.ns_per_task.
func BenchmarkRun(b *testing.B) {
	corpus := replayCorpus()
	for _, threads := range []int{2, 8, 32} {
		for _, sched := range []string{"workfirst", "breadthfirst", "centralized", "locality"} {
			b.Run(fmt.Sprintf("%s/x%d", sched, threads), func(b *testing.B) {
				p := DefaultOverheads()
				p.WorkUnitNS = 1
				p.Scheduler = sched
				tasks := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, c := range corpus {
						if threads < c.tr.NumRoots {
							continue
						}
						if _, err := Run(c.tr, threads, p); err != nil {
							b.Fatal(err)
						}
						tasks += c.tr.NumTasks()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
			})
		}
	}
}

// roundsTrace is a dependence-free trace whose size grows without its
// shape growing: one root runs the given number of rounds, each a
// binary task tree of 2047 tasks followed by a taskwait.
func roundsTrace(rounds int) *trace.Trace {
	rec := trace.NewRecorder()
	root := rec.Root()
	var tree func(n *trace.Node, depth int)
	tree = func(n *trace.Node, depth int) {
		n.AddWork(int64(depth%4) + 1)
		if depth == 0 {
			return
		}
		for k := 0; k < 2; k++ {
			tree(rec.Spawn(n, k == 1, false, 0), depth-1)
		}
		n.Taskwait()
		n.AddWork(1)
	}
	for r := 0; r < rounds; r++ {
		tree(rec.Spawn(root, false, false, 0), 10)
		root.Taskwait()
	}
	return rec.Finish()
}

// replayAllocCeiling bounds the allocations of one 8-thread replay. It
// is pinned from the 10 k-task roundsTrace (75–111 allocations per
// discipline: per-task state arrays, workers, and the one-time growth
// of their stacks and queues), with headroom for buffer growth only;
// allocating per task, per dependence edge or per event would add
// tens of thousands at 64–80 k tasks.
const replayAllocCeiling = 128

// TestReplayAllocsFlat checks that the event loop allocates nothing per
// event and the dependence set-up nothing per edge: 8× larger replays
// of a dependence-free trace and of a dependence chain fit under the
// ceiling the small dependence-free one was pinned from.
func TestReplayAllocsFlat(t *testing.T) {
	traces := []*trace.Trace{
		roundsTrace(5), roundsTrace(40), // 10 235 and 81 880 tasks
		depChainTrace(8<<10, 3), depChainTrace(64<<10, 3), // one edge per task
	}
	for _, sched := range []string{"workfirst", "breadthfirst", "centralized", "locality"} {
		p := DefaultOverheads()
		p.WorkUnitNS = 1
		p.Scheduler = sched
		for _, tr := range traces {
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := Run(tr, 8, p); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > replayAllocCeiling {
				t.Errorf("%s: %d-task replay made %.0f allocations, ceiling %d", sched, tr.NumTasks(), allocs, replayAllocCeiling)
			}
		}
	}
}
