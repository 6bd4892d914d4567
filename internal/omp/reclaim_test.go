package omp

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for in-region task reclamation (pool.go, tier 2) and the
// targeted taskwait wake (worker.waitPark). The two failure classes
// they hunt on purpose are the ones earlier PRs met by accident: a
// struct reused while another worker can still read it (the PR 8
// ghost-window class) and a park that misses its only wake (the PR 7
// class).

// graceScenario drives one stale constrained steal by hand. A thief
// (worker 1) is stopped inside its section, holding a task it read
// from worker 0's deque; the task is then stolen away, finished and
// retired on worker 0 along with enough others to close the batch. It
// reports whether the task was reset while the thief still held it,
// and whether the thief's walk, resumed afterwards, hit poison.
func graceScenario(t *testing.T) (resetEarly, walkPanicked bool) {
	t.Helper()
	tm, implicit := newTeam(2, nil)
	defer tm.shutdown(implicit)
	w0, w1 := tm.workers[0], tm.workers[1]
	mk := func(parent *task) *task {
		c := w0.newTask()
		c.parent, c.team, c.creator, c.depth = parent, tm, w0, parent.depth+1
		return c
	}
	anc := mk(implicit[1]) // the tied task worker 1 is suspended in
	victim := mk(mk(implicit[0]))
	var fillers []*task // made up front: newTask itself advances limbo
	for i := 1; i < limboBatch; i++ {
		fillers = append(fillers, mk(implicit[0]))
	}
	dq := tm.sched.(*dequeScheduler).ws[0].dq
	dq.pushBottom(victim)

	held, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer func() { walkPanicked = recover() != nil }()
		w1.quiesce.Add(1)
		got := dq.stealIf(func(c *task) bool {
			close(held)
			<-resume
			return c.isDescendantOf(anc)
		})
		w1.quiesce.Add(1)
		if got != nil {
			t.Errorf("stale steal succeeded")
		}
	}()
	<-held
	if got := dq.steal(); got != victim {
		t.Fatalf("second thief got %p, want the victim %p", got, victim)
	}
	w0.retire(victim)
	for _, f := range fillers {
		w0.retire(f)
	}
	resetEarly = victim.depth == poisonDepth
	close(resume)
	<-done
	if !resetEarly {
		if n := len(w0.freeTasks); n != 0 {
			t.Errorf("%d tasks on the free list while a thief was inside its section", n)
		}
		w0.advanceLimbo()
		if victim.depth != poisonDepth || len(w0.freeTasks) != limboBatch {
			t.Errorf("batch not recycled after the thief left its section: depth %d, %d free", victim.depth, len(w0.freeTasks))
		}
	}
	return resetEarly, walkPanicked
}

// TestGracePeriodHoldsBatch: a closed limbo batch is not reset while a
// worker that was inside a constrained steal when it closed is still
// inside it, and is reset once that worker has left.
func TestGracePeriodHoldsBatch(t *testing.T) {
	if early, panicked := graceScenario(t); early || panicked {
		t.Fatalf("reset early = %v, walk hit poison = %v; want neither", early, panicked)
	}
}

// TestSkippedGracePeriodIsCaught: with the grace period switched off
// the same scenario must fail, and fail loudly — the stale walk runs
// into the poison reset wrote. This is what makes the stress test
// below meaningful: a reuse that races a reader is observable.
func TestSkippedGracePeriodIsCaught(t *testing.T) {
	skipGrace = true
	defer func() { skipGrace = false }()
	if early, panicked := graceScenario(t); !early || !panicked {
		t.Fatalf("reset early = %v, walk hit poison = %v; want both", early, panicked)
	}
}

// stalledThieves is workfirst with the stale-read window propped open:
// the predicate of every constrained steal yields before it runs, so
// the thief sits between its slot read and its CAS while other workers
// steal, run, finish and retire the very task it is holding.
type stalledThieves struct{ *dequeScheduler }

func (s stalledThieves) Steal(self int, pred func(*task) bool) *task {
	if pred == nil {
		return s.dequeScheduler.Steal(self, nil)
	}
	return s.dequeScheduler.Steal(self, func(t *task) bool {
		runtime.Gosched()
		return pred(t)
	})
}

func withStalledThieves() TeamOpt {
	return func(c *teamConfig) {
		c.sched = stalledThieves{&dequeScheduler{name: "workfirst", stealBatch: defaultStealBatch}}
	}
}

// tiedTreeRegion runs a region of strict tied binary trees under
// stalled thieves and reports whether it panicked (a constraint walk
// or a queue met a reclaimed task) or lost or duplicated a task.
func tiedTreeRegion(workers int) (bad bool) {
	const roots, depth = 16, 8
	want := int64(roots * (1<<(depth+1) - 1))
	var ran atomic.Int64
	var tree func(c *Context, d int)
	tree = func(c *Context, d int) {
		ran.Add(1)
		if d == 0 {
			return
		}
		c.Task(func(c *Context) { tree(c, d-1) })
		c.Task(func(c *Context) { tree(c, d-1) })
		c.Taskwait()
	}
	defer func() {
		if recover() != nil || ran.Load() != want {
			bad = true
		}
	}()
	// Every taskwait sits inside a task: a panic there is contained by
	// execute and re-raised at region end, whereas one in the region
	// body itself would skip Single's barrier and wedge the team.
	Parallel(workers, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) {
				for r := 0; r < roots; r++ {
					c.Task(func(c *Context) { tree(c, depth) })
				}
				c.Taskwait()
			})
		})
	}, withStalledThieves())
	return false
}

// TestStalledThievesNeverSeeReclaimedTasks is the ghost-window hunt,
// both ways round. With the grace period in force, regions whose
// thieves dawdle inside every constrained steal must run clean; with
// it skipped, the same regions must fail — which proves the first half
// is looking at the window it claims to.
func TestStalledThievesNeverSeeReclaimedTasks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rounds := 30
	if testing.Short() {
		rounds = 5
	}
	for i := 0; i < rounds; i++ {
		if tiedTreeRegion(4 + 4*(i%2)) {
			t.Fatalf("round %d: a stalled thief met a reclaimed task with the grace period on", i)
		}
	}
	if raceEnabled {
		return // the detector would, rightly, fail the test on the races provoked below
	}
	skipGrace = true
	defer func() { skipGrace = false }()
	for i := 0; i < 200; i++ {
		if tiedTreeRegion(4 + 4*(i%2)) {
			t.Logf("grace period skipped: caught in round %d", i)
			return
		}
	}
	t.Fatal("200 regions with the grace period skipped all ran clean: the stress does not reach the stale-read window")
}

// TestReclaimStress oversubscribes two procs with 4–8 workers and
// mixes every shape the reclamation contract distinguishes: strict
// subtrees (reclaimed in-region), tied parents that return without
// taskwait (non-strict: buried, and their ancestors with them),
// dependence chains (buried while a parent's table names them), and
// tied waiters that can only make progress by constrained steals (the
// section limbo batches wait out). Every task increments its own
// counter, so a struct handed to two lives at once shows up as a task
// that ran twice or never; the dependence chain checks its order.
func TestReclaimStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		roots  = 24
		depth  = 7 // strict binary subtree per root
		orphan = 4 // fire-and-forget children per non-strict parent
		chain  = 32
	)
	perRoot := (1<<(depth+1) - 1) + 1 + orphan + orphan*2
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for _, sched := range Schedulers() {
		for _, workers := range []int{4, 8} {
			for round := 0; round < rounds; round++ {
				ran := make([]atomic.Int32, roots*perRoot+chain)
				var next atomic.Int64
				id := func() int { return int(next.Add(1)) - 1 }
				var strictTree func(c *Context, d int)
				strictTree = func(c *Context, d int) {
					ran[id()].Add(1)
					if d == 0 {
						return
					}
					c.Task(func(c *Context) { strictTree(c, d-1) })
					c.Task(func(c *Context) { strictTree(c, d-1) })
					c.Taskwait()
				}
				var chainLog []int
				st := Parallel(workers, func(c *Context) {
					c.Single(func(c *Context) {
						for r := 0; r < roots; r++ {
							c.Task(func(c *Context) { strictTree(c, depth) })
							// A tied parent that returns with children
							// outstanding, each of which does the same.
							c.Task(func(c *Context) {
								ran[id()].Add(1)
								for i := 0; i < orphan; i++ {
									c.Task(func(c *Context) {
										ran[id()].Add(1)
										c.Task(func(c *Context) { ran[id()].Add(1) })
										c.Task(func(c *Context) { ran[id()].Add(1) })
									})
								}
							})
						}
						link := new(int)
						for i := 0; i < chain; i++ {
							i := i
							c.Task(func(c *Context) {
								ran[id()].Add(1)
								chainLog = append(chainLog, i)
							}, InOut(link))
						}
						c.Taskwait()
					})
				}, WithScheduler(sched))
				label := fmt.Sprintf("%s/%d workers/round %d", sched, workers, round)
				if got := int(next.Load()); got != len(ran) {
					t.Fatalf("%s: %d tasks ran, want %d", label, got, len(ran))
				}
				for i := range ran {
					if n := ran[i].Load(); n != 1 {
						t.Fatalf("%s: task id %d taken %d times", label, i, n)
					}
				}
				for i, v := range chainLog {
					if v != i {
						t.Fatalf("%s: dependence chain ran out of order: %v", label, chainLog)
					}
				}
				if st.TasksCreated != int64(len(ran)) {
					t.Fatalf("%s: created %d, want %d", label, st.TasksCreated, len(ran))
				}
				if st.TasksReclaimed == 0 {
					t.Errorf("%s: nothing reclaimed in-region", label)
				}
			}
		}
	}
}

// TestNonStrictSubtreesAreNotReclaimed pins the strictness rule by
// count: in a region made only of parents that return without
// taskwait, the parents (and the dependence tasks) must take the
// quiescence path; only the leaves are strict.
func TestNonStrictSubtreesAreNotReclaimed(t *testing.T) {
	const parents, kids = 300, 3
	st := Parallel(1, func(c *Context) {
		for p := 0; p < parents; p++ {
			c.Task(func(c *Context) {
				for k := 0; k < kids; k++ {
					c.Task(func(c *Context) {})
				}
			})
		}
		c.Taskwait()
		link := new(int)
		for i := 0; i < 2*limboBatch; i++ {
			c.Task(func(c *Context) {}, InOut(link))
		}
	})
	if want := int64(parents*(1+kids) + 2*limboBatch); st.TasksCreated != want {
		t.Fatalf("created %d, want %d", st.TasksCreated, want)
	}
	// Reclaimed counts whole batches, so it trails the strict leaves
	// by less than one batch — and must never include a parent.
	leaves := int64(parents * kids)
	if st.TasksReclaimed > leaves || st.TasksReclaimed <= leaves-limboBatch {
		t.Fatalf("reclaimed %d, want within one batch below the %d strict leaves", st.TasksReclaimed, leaves)
	}
}

// TestTaskwaitParkNoLostWakeup races the two sides of the targeted
// wake against each other, many times: the last child of a tied
// parent completes on one worker at the moment the parent's worker
// registers and blocks in waitPark. Both are released from the same
// gate each round. A lost wake leaves the parent parked for ever with
// the other worker idle, which is exactly what the stall detector
// reports (ParkedWorkers counts condition waiters); the detector also
// un-wedges the team so a failure ends the test instead of timing out.
func TestTaskwaitParkNoLostWakeup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rounds := 100000
	if raceEnabled || testing.Short() {
		rounds = 20000
	}
	pt := NewPersistentTeam(2)
	defer pt.Close()
	stop := pt.StartStallMonitor(2*time.Second, 100*time.Millisecond, func() {
		t.Errorf("stall: live tasks with every worker parked (lost taskwait wake)")
		for _, w := range pt.tm.workers {
			w.wake()
		}
	})
	defer stop()
	var started, gate atomic.Int64
	st := pt.SubmitWait(func(c *Context) {
		for r := int64(1); r <= int64(rounds); r++ {
			c.Task(func(c *Context) {
				started.Store(r)
				for gate.Load() < r {
					runtime.Gosched()
				}
			})
			// Let the other worker steal and start the child, so it
			// cannot be run inline from the taskwait below.
			for started.Load() < r {
				runtime.Gosched()
			}
			gate.Store(r)
			c.Taskwait()
		}
	})
	if st.TasksStolen < int64(rounds) {
		t.Errorf("only %d of %d children ran on the other worker", st.TasksStolen, rounds)
	}
	t.Logf("%d rounds, %d taskwait parks", rounds, st.TaskwaitParks)
}

// TestPersistentTeamReclaimsInRegion: a multi-worker persistent team
// under back-to-back submissions runs on recycled task structs without
// ever reaching quiescence — reclamation happens at the same points as
// in a Parallel region, not only in Drain.
func TestPersistentTeamReclaimsInRegion(t *testing.T) {
	pt := NewPersistentTeam(2)
	var fib func(c *Context, n int)
	fib = func(c *Context, n int) {
		if n < 2 {
			return
		}
		c.Task(func(c *Context) { fib(c, n-1) })
		c.Task(func(c *Context) { fib(c, n-2) })
		c.Taskwait()
	}
	for i := 0; i < 50; i++ {
		pt.SubmitDetached(func(c *Context) { fib(c, 12) }, nil)
	}
	pt.Drain()
	st := pt.Close()
	if st.TasksReclaimed < st.TasksCreated*8/10 {
		t.Errorf("reclaimed %d of %d tasks in-region", st.TasksReclaimed, st.TasksCreated)
	}
	if st.TaskPoolMisses > 4*limboBatch {
		t.Errorf("%d task-pool misses over %d tasks", st.TaskPoolMisses, st.TasksCreated)
	}
}

// TestResetLeavesNoState: reset skips the atomic stores of fields that
// are already zero and clears the dependence fields only for tasks
// that declared depend clauses. Regions with dependence chains and
// readers, non-strict subtrees and leaky parents must still leave
// every task they reset fully clean. The region-end hook collects
// every struct still held in the workers' tiers: the free list (reset
// in-region by tiers 1 and 2) and limbo and grave, which shutdown
// resets right after the hook; all are checked once Parallel returns.
func TestResetLeavesNoState(t *testing.T) {
	var held []*task
	var withDeps, leaky int
	prev := regionEndHook
	regionEndHook = func(tm *Team) {
		for _, w := range tm.workers {
			for _, tier := range [][]*task{w.freeTasks, w.limbo, w.graced, w.grave} {
				for _, tk := range tier {
					if tk.hasDeps {
						withDeps++
					}
					if tk.leaky.Load() {
						leaky++
					}
					held = append(held, tk)
				}
			}
		}
	}
	defer func() { regionEndHook = prev }()

	body := func(c *Context) {
		c.Single(func(c *Context) {
			// A dependence chain with readers between the writers, so
			// tasks finish holding successors and the closed sentinel.
			a, b := new(int), new(int)
			for i := 0; i < 2*limboBatch; i++ {
				c.Task(func(c *Context) { *a++ }, InOut(a))
				c.Task(func(c *Context) { _ = *a; *b++ }, In(a), InOut(b))
				c.Task(func(c *Context) { _ = *a }, In(a))
			}
			for i := 0; i < 32; i++ {
				// A leaky parent: its child returns with its own children
				// outstanding, and the parent's taskwait then sees pending 0.
				c.Task(func(c *Context) {
					c.Task(func(c *Context) {
						for k := 0; k < 3; k++ {
							c.Task(func(c *Context) {})
						}
					})
					c.Taskwait()
				})
				// A strict subtree (limbo) and undeferred tasks (free list).
				c.Task(func(c *Context) {
					c.Task(func(c *Context) {})
					c.Task(func(c *Context) {}, If(false))
					c.Taskwait()
				})
			}
			c.Taskwait()
		})
	}
	for _, sched := range Schedulers() {
		held, withDeps, leaky = held[:0], 0, 0
		Parallel(2, body, WithScheduler(sched))
		if len(held) == 0 || withDeps == 0 || leaky == 0 {
			t.Fatalf("%s: hook saw %d tasks, %d with deps, %d leaky; want all nonzero", sched, len(held), withDeps, leaky)
		}
		for _, tk := range held {
			if tk.depth != poisonDepth || tk.pending.Load() != 0 || tk.leaky.Load() ||
				tk.hasDeps || tk.depsLeft.Load() != 0 || tk.succHead.Load() != nil {
				t.Fatalf("%s: reset left depth %d, pending %d, leaky %v, hasDeps %v, depsLeft %d, succHead %p",
					sched, tk.depth, tk.pending.Load(), tk.leaky.Load(), tk.hasDeps, tk.depsLeft.Load(), tk.succHead.Load())
			}
		}
	}
}
