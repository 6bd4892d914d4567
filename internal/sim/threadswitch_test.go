package sim

import (
	"testing"

	"bots/internal/trace"
)

// switchFixture builds the DAG where thread switching provably pays.
// Timeline (3 workers, work units = ns):
//
//	w0: root0 works 60, queues untied P, then P runs on w0:
//	    head 1, spawn C1(500), spawn C2(5), taskwait, tail 900.
//	w1: root1 works 65, queues decoy D(1000), works 335 more.
//	w2: root2 works 63, goes idle, steals C1 (the only theft target).
//
// At P's taskwait (t=66, after self-helping C2) its only option is to
// steal the just-published D. Without migration, P's continuation is
// pinned under D until t≈1066 and its 900-unit tail ends ≈1966. With
// migration the continuation detaches, C1 finishes on w2 at ≈563, an
// idle worker resumes the tail there, and the makespan drops to ≈1463.
func switchFixture() *trace.Trace {
	rec := trace.NewRecorder()
	root0, root1, root2 := rec.Root(), rec.Root(), rec.Root()

	root0.AddWork(60)
	p := rec.Spawn(root0, true, false, 0)

	p.AddWork(1)
	c1 := rec.Spawn(p, false, false, 0)
	c1.AddWork(500)
	c2 := rec.Spawn(p, false, false, 0)
	c2.AddWork(5)
	p.Taskwait()
	p.AddWork(900)

	root1.AddWork(65)
	d := rec.Spawn(root1, false, false, 0)
	d.AddWork(1000)
	root1.AddWork(335)

	root2.AddWork(63)
	return rec.Finish()
}

func TestThreadSwitchImprovesMakespan(t *testing.T) {
	tr := switchFixture()
	noSwitch, err := Run(tr, 3, Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	withSwitch, err := Run(tr, 3, Params{WorkUnitNS: 1, ThreadSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if withSwitch.Switches == 0 {
		t.Fatal("expected at least one continuation migration")
	}
	if noSwitch.MakespanNS < 1900 {
		t.Fatalf("no-switch makespan %.0f; fixture did not pin the continuation as designed",
			noSwitch.MakespanNS)
	}
	if withSwitch.MakespanNS > noSwitch.MakespanNS-400 {
		t.Fatalf("thread switching should help substantially: %.0f vs %.0f",
			withSwitch.MakespanNS, noSwitch.MakespanNS)
	}
}

func TestThreadSwitchPreservesCorrectnessBounds(t *testing.T) {
	// The makespan bounds must hold with switching enabled too.
	for _, script := range [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64},
	} {
		tr := randomTrace(script, 3, false)
		res, err := Run(tr, 3, Params{WorkUnitNS: 1, ThreadSwitch: true})
		if err != nil {
			t.Fatal(err)
		}
		total := float64(tr.TotalWork())
		if res.MakespanNS < total/3-1e-6 || res.MakespanNS > total+1e-6 {
			t.Fatalf("makespan %v outside [%v, %v]", res.MakespanNS, total/3, total)
		}
		if res.MakespanNS < float64(tr.CriticalPath())-1e-6 {
			t.Fatalf("makespan %v below critical path %d", res.MakespanNS, tr.CriticalPath())
		}
	}
}

func TestThreadSwitchOnTiedTasksIsInert(t *testing.T) {
	// Tied tasks may not migrate: enabling ThreadSwitch on an
	// all-tied trace must change nothing.
	rec := trace.NewRecorder()
	root := rec.Root()
	for i := 0; i < 4; i++ {
		p := rec.Spawn(root, false, false, 0)
		p.AddWork(10)
		c := rec.Spawn(p, false, false, 0)
		c.AddWork(50)
		p.Taskwait()
		p.AddWork(10)
	}
	root.Taskwait()
	tr := rec.Finish()
	a, err := Run(tr, 1, Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, 1, Params{WorkUnitNS: 1, ThreadSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Switches != 0 {
		t.Fatalf("tied tasks migrated %d times", b.Switches)
	}
	if a.MakespanNS != b.MakespanNS {
		t.Fatalf("ThreadSwitch changed a tied-only schedule: %v vs %v", a.MakespanNS, b.MakespanNS)
	}
}

func TestCentralQueueSerialization(t *testing.T) {
	// Many tiny tasks through a serialized queue: the queue becomes
	// the bottleneck and the makespan approaches ops × serializeNS.
	rec := trace.NewRecorder()
	roots := []*trace.Node{rec.Root(), rec.Root(), rec.Root(), rec.Root()}
	const n = 200
	for i := 0; i < n; i++ {
		rec.Spawn(roots[0], false, false, 0).AddWork(1)
	}
	roots[0].Taskwait()
	tr := rec.Finish()
	deques, err := Run(tr, 4, Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	central, err := Run(tr, 4, Params{WorkUnitNS: 1, QueueSerializeNS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if central.MakespanNS <= deques.MakespanNS {
		t.Fatalf("central queue should be slower: %v vs %v", central.MakespanNS, deques.MakespanNS)
	}
	// 2n queue ops (enqueue + dequeue) at 50ns each bound from below.
	if central.MakespanNS < float64(2*n*50) {
		t.Fatalf("makespan %v below the queue serialization bound %v",
			central.MakespanNS, 2*n*50)
	}
}

func TestSwitchCostCharged(t *testing.T) {
	tr := switchFixture()
	free, err := Run(tr, 3, Params{WorkUnitNS: 1, ThreadSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := Run(tr, 3, Params{WorkUnitNS: 1, ThreadSwitch: true, SwitchNS: 500})
	if err != nil {
		t.Fatal(err)
	}
	if costly.Switches == 0 {
		t.Fatal("no switches in costly run")
	}
	if costly.MakespanNS < free.MakespanNS {
		t.Fatalf("switch cost should not speed things up: %v vs %v",
			costly.MakespanNS, free.MakespanNS)
	}
}
