package health

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"bots/internal/core"
	"bots/internal/omp"
)

// goldenRun pins one simulation's observable output: the verification
// digest, the work count, and treeHash of the final tree.
type goldenRun struct {
	digest string
	work   int64
	tree   uint64
}

// seqGolden holds the sequential reference per class. Every parallel
// run below must reproduce its class's digest, work and whole tree.
var seqGolden = map[core.Class]goldenRun{
	core.Test: {"patients=537 treated=338 wait=676 hospitals=399 open=106/52/41",
		28712, 0x720e3bd75e4a5621},
	core.Small: {"patients=5377 treated=4169 wait=18834 hospitals=5074 open=842/227/139",
		337287, 0x15d7f16eb5e62ae5},
	core.Medium: {"patients=108922 treated=84908 wait=469287 hospitals=103753 open=17723/3690/2601",
		7017146, 0xf8b2f2d024844fd5},
}

// parTasks pins the task count of parRun per version and class: the
// cut-off scheme alone decides it, whatever the schedule.
var parTasks = map[string]map[core.Class]int64{
	"manual-tied": {core.Test: 120, core.Medium: 34000},
	"none-untied": {core.Test: 600, core.Medium: 136400},
}

// treeHash folds every village's counters, every queue's patients in
// queue order, and each village's next random draw into one FNV-64a.
// The digest string only sums over the tree, so it could miss a change
// of queue order or of how many draws a village made; this cannot. It
// advances every village's stream by one draw.
func treeHash(root *Village) uint64 {
	h := fnv.New64a()
	put := func(x int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	var walk func(v *Village)
	walk = func(v *Village) {
		hs := &v.hospital
		for _, x := range []int64{v.totalPatients, v.totalTreated, v.totalWaitTime, v.totalHospitals,
			v.nextID, int64(hs.freePersonnel)} {
			put(x)
		}
		for _, q := range [][]Patient{hs.waiting, hs.assess, hs.inside, hs.reallocUp} {
			put(int64(len(q)))
			for _, p := range q {
				put(p.id)
				put(int64(p.timeLeft))
				put(int64(p.hospitals))
				put(p.totalWait)
			}
		}
		put(int64(v.rng.Uint64()))
		for _, c := range v.children {
			walk(c)
		}
	}
	walk(root)
	return h.Sum64()
}

// TestHealthDigestGolden pins what a health simulation computes, so a
// change to how it computes it (queue storage, patient allocation,
// how draws are taken) must reproduce every bit: the sequential run at
// test, small and medium; parRun's digest, work and task count for a
// tied and an untied version under every scheduler at two threads,
// and its whole tree, which pins the queue order of the hand-off where
// a parent copies each child's reallocUp after the taskwait; and
// Simulate on a two-worker persistent team, the service path.
func TestHealthDigestGolden(t *testing.T) {
	for _, class := range []core.Class{core.Test, core.Small, core.Medium} {
		p := classParams[class]
		v := Build(p)
		var work int64
		for s := 0; s < p.steps; s++ {
			work += seqSim(v)
		}
		got := goldenRun{digest(v), work, treeHash(v)}
		if want := seqGolden[class]; got != want {
			t.Errorf("seq %s: got %#v, want %#v", class, got, want)
		}
	}

	for _, version := range []string{"manual-tied", "none-untied"} {
		for _, class := range []core.Class{core.Test, core.Medium} {
			want := seqGolden[class]
			for _, sched := range []string{"workfirst", "breadthfirst", "centralized", "locality"} {
				res, v, err := parRunTree(core.RunConfig{Class: class, Version: version, Threads: 2, Scheduler: sched})
				if err != nil {
					t.Fatal(err)
				}
				name := version + "/" + class.String() + "/" + sched
				if res.Digest != want.digest || res.Stats.WorkUnits != want.work {
					t.Errorf("%s: digest %q work %d, want %q work %d",
						name, res.Digest, res.Stats.WorkUnits, want.digest, want.work)
				}
				if got, want := res.Stats.TotalTasks(), parTasks[version][class]; got != want {
					t.Errorf("%s: %d tasks, want %d", name, got, want)
				}
				if got := treeHash(v); got != want.tree {
					t.Errorf("%s: tree %#x, want %#x", name, got, want.tree)
				}
			}
		}
	}

	pt := omp.NewPersistentTeam(2)
	defer pt.Close()
	v := BuildClass(core.Test)
	pt.SubmitWait(func(c *omp.Context) { Simulate(c, v, Steps(core.Test), DefaultCutoffLevel) })
	want := seqGolden[core.Test]
	if got := Digest(v); got != want.digest {
		t.Errorf("service: digest %q, want %q", got, want.digest)
	}
	if got := treeHash(v); got != want.tree {
		t.Errorf("service: tree %#x, want %#x", got, want.tree)
	}
}
