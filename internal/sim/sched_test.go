package sim

import (
	"strings"
	"testing"

	"bots/internal/omp"
	"bots/internal/trace"
)

func TestUnknownSchedulerRejected(t *testing.T) {
	tr := flatTrace(4, 100, false)
	_, err := Run(tr, 2, Params{WorkUnitNS: 1, Scheduler: "chaotic"})
	if err == nil || !strings.Contains(err.Error(), "chaotic") {
		t.Fatalf("unknown scheduler should error, got %v", err)
	}
}

// TestEveryOmpSchedulerReplays: the simulator models exactly omp's
// closed scheduler vocabulary. Every omp.Schedulers() name, and every
// name(4) omp.NewScheduler accepts, replays through Run, so a
// scheduler added to omp without a sim discipline fails here instead
// of replaying under some other scheduler's model.
func TestEveryOmpSchedulerReplays(t *testing.T) {
	tr := flatTrace(16, 1000, false)
	for _, base := range omp.Schedulers() {
		names := []string{base}
		if _, err := omp.NewScheduler(base + "(4)"); err == nil {
			names = append(names, base+"(4)")
		}
		for _, name := range names {
			res, err := Run(tr, 2, Params{WorkUnitNS: 1, Scheduler: name})
			if err != nil {
				t.Fatalf("omp scheduler %q has no sim discipline: %v", name, err)
			}
			if res.Speedup <= 0 {
				t.Fatalf("%s: replay produced no result", name)
			}
		}
	}
	if _, err := Run(tr, 2, Params{WorkUnitNS: 1, Scheduler: "numa"}); err == nil {
		t.Fatal("a name outside omp's vocabulary should error")
	}
}

// TestAllDisciplinesReplayFib checks every queue discipline replays a
// real recorded task graph to completion with a sane makespan: no
// deadlock under the tied constraint, full drain, speedup within the
// thread count.
func TestAllDisciplinesReplayFib(t *testing.T) {
	tr := recordFib(t, 14, 4)
	for _, name := range omp.Schedulers() {
		res, err := Run(tr, 4, Params{WorkUnitNS: 50, SpawnNS: 100, StealNS: 200, Scheduler: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Speedup <= 1 || res.Speedup > 4+1e-9 {
			t.Errorf("%s: speedup = %v, want in (1, 4]", name, res.Speedup)
		}
	}
}

// TestCentralizedHasNoSteals: a single shared queue has no per-worker
// queues, so the steal counter must stay zero while the work still
// spreads across the team.
func TestCentralizedHasNoSteals(t *testing.T) {
	tr := flatTrace(64, 10000, false)
	res, err := Run(tr, 1, Params{WorkUnitNS: 1, Scheduler: "centralized"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals != 0 {
		t.Fatalf("centralized replay counted %d steals, want 0", res.Steals)
	}
}

// TestCentralizedSpreadsWork: extra virtual threads draw from the
// shared queue even though nothing is ever "stolen".
func TestCentralizedSpreadsWork(t *testing.T) {
	rec := trace.NewRecorder()
	roots := make([]*trace.Node, 4)
	for i := range roots {
		roots[i] = rec.Root()
	}
	for i := 0; i < 64; i++ {
		rec.Spawn(roots[0], false, false, 0).AddWork(10000)
	}
	roots[0].Taskwait()
	tr := rec.Finish()
	res, err := Run(tr, 4, Params{WorkUnitNS: 1, Scheduler: "centralized"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 3.5 {
		t.Fatalf("centralized 4-thread speedup on 64 equal tasks = %v, want ≈ 4", res.Speedup)
	}
	if res.Steals != 0 {
		t.Fatalf("centralized replay counted %d steals", res.Steals)
	}
}

// TestLocalityStealsInBulk: with one generator and many short tasks,
// steal-half moves backlog in batches, so locality needs no more
// steal operations than workfirst's one-at-a-time discipline while
// counting at least one bulk move.
func TestLocalityStealHalf(t *testing.T) {
	rec := trace.NewRecorder()
	roots := make([]*trace.Node, 4)
	for i := range roots {
		roots[i] = rec.Root()
	}
	for i := 0; i < 128; i++ {
		rec.Spawn(roots[0], false, false, 0).AddWork(1000)
	}
	roots[0].Taskwait()
	tr := rec.Finish()
	loc, err := Run(tr, 4, Params{WorkUnitNS: 1, Scheduler: "locality"})
	if err != nil {
		t.Fatal(err)
	}
	if loc.Speedup < 3 {
		t.Fatalf("locality speedup = %v, want ≈ 4", loc.Speedup)
	}
	if loc.Steals == 0 {
		t.Fatal("locality replay should steal from the single generator")
	}
}

// TestDisciplinesDiverge: the disciplines are really distinct models
// — under a cost model that charges steals, a deep task graph must
// not produce identical schedules across all four.
func TestDisciplinesDiverge(t *testing.T) {
	tr := recordFib(t, 14, 4)
	p := Params{WorkUnitNS: 20, SpawnNS: 100, StealNS: 400, TaskwaitNS: 50}
	seen := map[float64][]string{}
	for _, name := range omp.Schedulers() {
		p.Scheduler = name
		res, err := Run(tr, 4, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen[res.MakespanNS] = append(seen[res.MakespanNS], name)
	}
	if len(seen) < 2 {
		t.Fatalf("all disciplines produced one makespan: %v", seen)
	}
}

// TestParameterizedSchedulerResolves: batch-parameterized registry
// forms (workfirst(8), locality(64), …) replay under their base
// name's discipline — the simulator models queue order and steal
// direction, not raid width — while malformed or unknown
// parameterized names still error.
func TestParameterizedSchedulerResolves(t *testing.T) {
	tr := flatTrace(16, 500, false)
	for _, name := range []string{"workfirst(8)", "breadthfirst(2)", "locality(64)"} {
		res, err := Run(tr, 2, Params{WorkUnitNS: 1, Scheduler: name})
		if err != nil {
			t.Fatalf("%s should simulate under its base discipline: %v", name, err)
		}
		if res.Speedup <= 0 {
			t.Fatalf("%s replay produced no result", name)
		}
	}
	if _, err := Run(tr, 2, Params{WorkUnitNS: 1, Scheduler: "chaotic(8)"}); err == nil {
		t.Fatal("unknown base with a parameter should still error")
	}
}
