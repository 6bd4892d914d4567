package sim

import (
	"math"
	"testing"
	"testing/quick"

	"bots/internal/trace"
)

// randomTrace builds a structurally valid random task graph from a
// byte script: each byte picks a parent among existing tasks, a work
// amount, tiedness, inlining, and occasionally a taskwait. With deps,
// a byte's top bit also makes a deferred child depend on its parent's
// previous deferred child, the sibling dependence mixedTree records.
func randomTrace(script []byte, roots int, deps bool) *trace.Trace {
	rec := trace.NewRecorder()
	nodes := make([]*trace.Node, 0, len(script)+roots)
	lastKid := make([]*trace.Node, 0, len(script)+roots) // per node: its last deferred child
	for i := 0; i < roots; i++ {
		r := rec.Root()
		r.AddWork(int64(i%3) + 1)
		nodes = append(nodes, r)
		lastKid = append(lastKid, nil)
	}
	for _, b := range script {
		pi := int(b) % len(nodes)
		parent := nodes[pi]
		inline := b%7 == 0
		child := rec.Spawn(parent, b%2 == 0, inline, int(b%64))
		child.AddWork(int64(b%23) + 1)
		if deps && !inline {
			if prev := lastKid[pi]; prev != nil && b&0x80 != 0 {
				child.DependsOn(prev)
			}
			lastKid[pi] = child
		}
		nodes = append(nodes, child)
		lastKid = append(lastKid, nil)
		if b%3 == 0 {
			parent.Taskwait()
		}
		if b%11 == 0 {
			parent.AddWork(int64(b % 5))
		}
	}
	return rec.Finish()
}

// TestMakespanBounds: for any DAG and any thread count, with zero
// overheads the simulated makespan must satisfy the fundamental
// scheduling bounds: makespan ≥ totalWork/T, makespan ≥ critical
// path, and makespan ≤ totalWork (no idle inflation beyond serial).
func TestMakespanBounds(t *testing.T) {
	f := func(script []byte, tRaw uint8) bool {
		if len(script) == 0 {
			return true
		}
		threads := int(tRaw%8) + 1
		tr := randomTrace(script, threads, false)
		if err := tr.Validate(); err != nil {
			t.Logf("invalid trace: %v", err)
			return false
		}
		res, err := Run(tr, threads, Params{WorkUnitNS: 1})
		if err != nil {
			t.Logf("sim error: %v", err)
			return false
		}
		total := float64(tr.TotalWork())
		cp := float64(tr.CriticalPath())
		const eps = 1e-6
		if res.MakespanNS < total/float64(threads)-eps {
			t.Logf("makespan %v below work bound %v", res.MakespanNS, total/float64(threads))
			return false
		}
		if res.MakespanNS < cp-eps {
			t.Logf("makespan %v below critical path %v", res.MakespanNS, cp)
			return false
		}
		if res.MakespanNS > total+eps {
			t.Logf("makespan %v exceeds serial work %v", res.MakespanNS, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestOneThreadMakespanIsExact: with one thread and zero overheads
// the makespan must equal total work exactly (the simulator neither
// loses nor invents time).
func TestOneThreadMakespanIsExact(t *testing.T) {
	f := func(script []byte) bool {
		if len(script) == 0 {
			return true
		}
		tr := randomTrace(script, 1, false)
		res, err := Run(tr, 1, Params{WorkUnitNS: 1})
		if err != nil {
			return false
		}
		return math.Abs(res.MakespanNS-float64(tr.TotalWork())) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// (No cross-thread-count monotonicity property is asserted: traces
// are recorded per team size, so the DAGs differ across thread
// counts, and even on a fixed DAG work stealing under the tied-task
// scheduling constraint is subject to classic schedule anomalies.)

// TestOverheadAccounting: with pure overheads and no work, the
// 1-thread makespan must be exactly the sum of charged costs.
func TestOverheadAccounting(t *testing.T) {
	rec := trace.NewRecorder()
	root := rec.Root()
	for i := 0; i < 5; i++ {
		rec.Spawn(root, false, false, 0) // 5 deferred spawns
	}
	for i := 0; i < 3; i++ {
		rec.Spawn(root, false, true, 0) // 3 inline spawns
	}
	root.Taskwait()
	tr := rec.Finish()
	p := Params{WorkUnitNS: 1, SpawnNS: 100, InlineNS: 10, TaskwaitNS: 1000}
	res, err := Run(tr, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 5*100.0 + 3*10.0 + 1000.0
	if math.Abs(res.MakespanNS-want) > 1e-9 {
		t.Fatalf("makespan = %v, want %v", res.MakespanNS, want)
	}
}

// TestBandwidthNeverSpeedsUp: enabling the bandwidth model can only
// increase the makespan.
func TestBandwidthNeverSpeedsUp(t *testing.T) {
	f := func(script []byte) bool {
		if len(script) == 0 {
			return true
		}
		tr := randomTrace(script, 4, false)
		free, err1 := Run(tr, 4, Params{WorkUnitNS: 1})
		capped, err2 := Run(tr, 4, Params{WorkUnitNS: 1, MemFraction: 0.8, BandwidthCap: 1.5})
		if err1 != nil || err2 != nil {
			return false
		}
		return capped.MakespanNS >= free.MakespanNS-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
