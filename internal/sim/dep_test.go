package sim

import (
	"bytes"
	"strings"
	"testing"

	"bots/internal/trace"
)

// depChainTrace builds a root that spawns n equal tasks forming a
// serial InOut chain (each depends on the previous).
func depChainTrace(n int, work int64) *trace.Trace {
	r := trace.NewRecorder()
	root := r.Root()
	var prev *trace.Node
	for i := 0; i < n; i++ {
		t := r.Spawn(root, false, false, 0)
		t.AddWork(work)
		if prev != nil {
			t.DependsOn(prev)
		}
		prev = t
	}
	tr := r.Finish()
	return tr
}

// TestDepChainSerializes: a dependence chain cannot speed up with
// more threads — the simulated makespan must be at least the chain's
// total work regardless of team size.
func TestDepChainSerializes(t *testing.T) {
	tr := depChainTrace(16, 100)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	for _, threads := range []int{1, 4, 8} {
		res, err := Run(tr, threads, Params{WorkUnitNS: 1})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if res.MakespanNS < 1600 {
			t.Errorf("threads=%d: makespan %.0f < serial chain 1600 — dependences not enforced",
				threads, res.MakespanNS)
		}
		if res.Speedup > 1.01 {
			t.Errorf("threads=%d: speedup %.2f on a serial chain", threads, res.Speedup)
		}
	}
}

// TestDepDiamondOrdering replays a diamond and asserts, via the
// timeline hooks, that no task starts before its predecessors
// complete.
func TestDepDiamondOrdering(t *testing.T) {
	r := trace.NewRecorder()
	root := r.Root()
	a := r.Spawn(root, false, false, 0)
	a.AddWork(50)
	b := r.Spawn(root, false, false, 0)
	b.AddWork(30)
	b.DependsOn(a)
	c := r.Spawn(root, false, false, 0)
	c.AddWork(40)
	c.DependsOn(a)
	d := r.Spawn(root, false, false, 0)
	d.AddWork(20)
	d.DependsOn(b)
	d.DependsOn(c)
	tr := r.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}

	start := map[int32]float64{}
	complete := map[int32]float64{}
	p := Params{
		WorkUnitNS: 1,
		OnStart:    func(id int32, _ int, at float64) { start[id] = at },
		OnComplete: func(id int32, _ int, at float64) { complete[id] = at },
	}
	res, err := Run(tr, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	for succ, preds := range map[int32][]int32{2: {1}, 3: {1}, 4: {2, 3}} {
		for _, pred := range preds {
			if start[succ] < complete[pred] {
				t.Errorf("task %d started at %.0f before predecessor %d completed at %.0f",
					succ, start[succ], pred, complete[pred])
			}
		}
	}
	// B and C are independent once A is done: with 4 threads they
	// must overlap, so the makespan beats the serial sum.
	if res.MakespanNS >= 140 {
		t.Errorf("makespan %.0f: readers did not overlap (serial = 140)", res.MakespanNS)
	}
}

// TestDepWideGraphScales replays a two-phase graph — one producer,
// many independent consumers — and checks consumers parallelize.
func TestDepWideGraphScales(t *testing.T) {
	r := trace.NewRecorder()
	root := r.Root()
	prod := r.Spawn(root, false, false, 0)
	prod.AddWork(100)
	const fan = 32
	for i := 0; i < fan; i++ {
		c := r.Spawn(root, false, false, 0)
		c.AddWork(100)
		c.DependsOn(prod)
	}
	tr := r.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	r1, err := Run(tr, 1, Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(tr, 8, Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r8.MakespanNS >= r1.MakespanNS {
		t.Errorf("8 threads (%.0f) not faster than 1 (%.0f)", r8.MakespanNS, r1.MakespanNS)
	}
	// Ideal: 100 (producer) + 32*100/8 = 500; allow scheduling slack.
	if r8.MakespanNS > 900 {
		t.Errorf("8-thread makespan %.0f, want near 500 — consumers not overlapping", r8.MakespanNS)
	}
}

// TestDepTraceRoundTripReplays is the end-to-end acceptance path at
// the sim level: serialize a dep trace, reload it, and replay the
// loaded copy.
func TestDepTraceRoundTripReplays(t *testing.T) {
	tr := depChainTrace(8, 10)
	res1, err := Run(tr, 2, Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(tr2, 2, Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.MakespanNS != res2.MakespanNS {
		t.Errorf("replay of reloaded trace differs: %.0f vs %.0f", res1.MakespanNS, res2.MakespanNS)
	}
}

// TestDependenceCycleDeadlocks replays a root whose two children each
// depend on the other. Neither can ever start, and Run must say so
// with its deadlock error rather than spin or report a makespan.
func TestDependenceCycleDeadlocks(t *testing.T) {
	r := trace.NewRecorder()
	root := r.Root()
	a := r.Spawn(root, false, false, 0)
	a.AddWork(10)
	b := r.Spawn(root, false, false, 0)
	b.AddWork(10)
	a.DependsOn(b)
	b.DependsOn(a)
	root.Taskwait()
	tr := r.Finish()
	for _, threads := range []int{1, 4} {
		_, err := Run(tr, threads, Params{WorkUnitNS: 1})
		if err == nil || !strings.HasPrefix(err.Error(), "sim: deadlock") {
			t.Errorf("threads=%d: err = %v, want the sim: deadlock error", threads, err)
		}
	}
}
