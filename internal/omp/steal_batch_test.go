package omp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealBatchNameRoundTrip pins the parameterized scheduler
// vocabulary: explicit batches render as name(batch) and resolve back
// to the configuration that produced them; the default batch renders
// the bare name (so lab keys cannot split one configuration in two).
func TestStealBatchNameRoundTrip(t *testing.T) {
	for _, base := range []string{"workfirst", "breadthfirst", "locality"} {
		s, err := NewScheduler(base + "(8)")
		if err != nil {
			t.Fatalf("NewScheduler(%s(8)): %v", base, err)
		}
		if got := s.Name(); got != base+"(8)" {
			t.Errorf("%s(8) renders as %q", base, got)
		}
		if _, err := NewScheduler(s.Name()); err != nil {
			t.Errorf("%q does not resolve back: %v", s.Name(), err)
		}
		// The default batch is the bare name, both ways.
		s, err = NewScheduler(fmt.Sprintf("%s(%d)", base, defaultStealBatch))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Name(); got != base {
			t.Errorf("%s(default batch) renders as %q, want the bare name", base, got)
		}
	}
	// Out-of-range batches are rejected with the valid range.
	for _, bad := range []string{"workfirst(0)", "workfirst(-3)", fmt.Sprintf("workfirst(%d)", maxStealBatch+1)} {
		if _, err := NewScheduler(bad); err == nil {
			t.Errorf("NewScheduler(%q) accepted an out-of-range batch", bad)
		}
	}
	// The pool scheduler has no batch parameter.
	if _, err := NewScheduler("centralized(8)"); err == nil {
		t.Error("centralized should reject parameters")
	}
}

// TestStealBatchMovesHalf pins the raid arithmetic at the scheduler
// level, single-threaded so the counts are exact: one Steal call on a
// victim with B queued tasks returns one task and relocates
// min(batch-1, (B-1)/2) more onto the thief's own queue — one raid,
// ~half the backlog, nothing lost.
func TestStealBatchMovesHalf(t *testing.T) {
	for _, name := range []string{"workfirst(16)", "breadthfirst(16)"} {
		t.Run(name, func(t *testing.T) {
			s, err := NewScheduler(name)
			if err != nil {
				t.Fatal(err)
			}
			d := s.(*dequeScheduler)
			d.Init(2)
			defer d.Fini()

			const B = 40
			for i := 0; i < B; i++ {
				d.Push(0, &task{depth: int32(i)})
			}
			got := d.Steal(1, nil)
			if got == nil {
				t.Fatal("steal from a 40-task victim returned nil")
			}
			// After the first item steal the victim holds B-1 = 39;
			// half is 19, capped at batch-1 = 15.
			if q := d.Queued(1); q != 15 {
				t.Errorf("thief backlog after one raid = %d, want 15 (batch-1)", q)
			}
			if q := d.Queued(0); q != B-1-15 {
				t.Errorf("victim backlog after one raid = %d, want %d", q, B-1-15)
			}
			// The relocated backlog must be advertised as stealable
			// from the thief now.
			if !d.HasStealableWork(0) {
				t.Error("victim's view: relocated backlog on the thief is not advertised")
			}

			// Nothing lost, nothing duplicated: drain both slots and
			// count every task exactly once.
			seen := map[*task]bool{got: true}
			for slot := 0; slot < 2; slot++ {
				for {
					tk := d.PopLocal(slot, nil)
					if tk == nil {
						break
					}
					if seen[tk] {
						t.Fatalf("task %p drained twice", tk)
					}
					seen[tk] = true
				}
			}
			if len(seen) != B {
				t.Fatalf("drained %d distinct tasks, want %d", len(seen), B)
			}
		})
	}
}

// TestStealBatchKeepsTiedChildren pins the raid rule: a raid moves
// only tasks whose parent is untied, a nil parent counting as untied.
// A stolen task with a tied parent is taken alone, and a raid ends at
// the first claimed task whose parent is tied, which travels last.
func TestStealBatchKeepsTiedChildren(t *testing.T) {
	const B = 40
	tied, untied := &task{}, &task{untied: true}
	for _, tc := range []struct {
		name    string
		parent  func(i int) *task // parent of the i-th task from the top
		wantMov int64             // tasks relocated onto the thief
	}{
		{"tied", func(int) *task { return tied }, 0},
		{"untied", func(int) *task { return untied }, 15},
		{"nil", func(int) *task { return nil }, 15},
		// Untied tasks at the top, tied behind them: the raid claims
		// the two untied ones after the first, then the first tied one,
		// and stops there.
		{"mixed", func(i int) *task {
			if i < 3 {
				return untied
			}
			return tied
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewScheduler("workfirst(16)")
			if err != nil {
				t.Fatal(err)
			}
			d := s.(*dequeScheduler)
			d.Init(2)
			defer d.Fini()
			for i := 0; i < B; i++ {
				d.Push(0, &task{parent: tc.parent(i), depth: int32(i)})
			}
			got := d.Steal(1, nil)
			if got == nil {
				t.Fatal("steal from a 40-task victim returned nil")
			}
			if got.depth != 0 {
				t.Errorf("stole task %d, want the victim's oldest (0)", got.depth)
			}
			if q := d.Queued(1); q != tc.wantMov {
				t.Errorf("thief backlog after one raid = %d, want %d", q, tc.wantMov)
			}
			if q := d.Queued(0); q != B-1-tc.wantMov {
				t.Errorf("victim backlog after one raid = %d, want %d", q, B-1-tc.wantMov)
			}
		})
	}
}

// TestStealBatchTiedFibParks is the region-level face of the raid
// rule. When a raid could carry a victim's pending children from every
// depth of its spine, the tied tasks waiting on them stayed on the
// victim, could not reach them (a constrained steal reads only the
// thief's top, which holds the shallowest moved task) and parked until
// the thief had finished its whole subtree: 200–500 taskwait parks
// against about 12 steals per tied fib(23) region at 2 workers. With
// the rule a park needs a steal behind it; a few per steal remain (the
// waiter of a stolen child parks when its own work runs out).
func TestStealBatchTiedFibParks(t *testing.T) {
	const regions = 5
	var slack []int64 // 4·(stolen+1) − parks, per region
	for i := 0; i < regions; i++ {
		var res int64
		st := Parallel(2, func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) { parFib(c, 23, &res) })
			})
		})
		if want := fibSeq(23); res != want {
			t.Fatalf("fib(23) = %d, want %d", res, want)
		}
		slack = append(slack, 4*(st.TasksStolen+1)-st.TaskwaitParks)
		t.Logf("region %d: %d taskwait parks, %d stolen", i, st.TaskwaitParks, st.TasksStolen)
	}
	sort.Slice(slack, func(i, j int) bool { return slack[i] < slack[j] })
	if med := slack[regions/2]; med < 0 {
		t.Errorf("median region parks %d more than 4×(stolen+1): tied waiters idle behind raids", -med)
	}
}

// TestStealBatchConstrainedSingle pins the tied-task rule mid-raid: a
// constrained Steal (pred non-nil) must take at most one admissible
// task and must not bulk-relocate tasks the thief may not run — a
// rejected sweep leaves the victim's backlog exactly where it was.
func TestStealBatchConstrainedSingle(t *testing.T) {
	s, err := NewScheduler("workfirst(16)")
	if err != nil {
		t.Fatal(err)
	}
	d := s.(*dequeScheduler)
	d.Init(2)
	defer d.Fini()

	const B = 20
	for i := 0; i < B; i++ {
		d.Push(0, &task{depth: int32(i)})
	}
	// Reject everything: no task may move.
	if tk := d.Steal(1, func(*task) bool { return false }); tk != nil {
		t.Fatalf("constrained steal returned a rejected task %p", tk)
	}
	if q := d.Queued(0); q != B {
		t.Errorf("victim backlog after rejected raid = %d, want %d (nothing may move)", q, B)
	}
	if q := d.Queued(1); q != 0 {
		t.Errorf("thief backlog after rejected raid = %d, want 0", q)
	}
	// Accept everything: exactly one task moves (no batch relocation
	// under a constraint).
	tk := d.Steal(1, func(*task) bool { return true })
	if tk == nil {
		t.Fatal("admissible constrained steal returned nil")
	}
	if q := d.Queued(1); q != 0 {
		t.Errorf("thief backlog after constrained steal = %d, want 0 (single task, no relocation)", q)
	}
	if q := d.Queued(0); q != B-1 {
		t.Errorf("victim backlog after constrained steal = %d, want %d", q, B-1)
	}
}

// TestStealBatchConcurrentRaids hammers the batch path from several
// thieves while the owner pushes and pops: every task must surface
// exactly once across all consumers. This is the test that would
// catch a non-linearizable batched steal (a multi-slot top CAS racing
// the owner's free pop would double-execute; see stealBatchInto).
func TestStealBatchConcurrentRaids(t *testing.T) {
	const (
		P     = 4
		tasks = 40000
	)
	s, err := NewScheduler("workfirst(16)")
	if err != nil {
		t.Fatal(err)
	}
	d := s.(*dequeScheduler)
	d.Init(P)
	defer d.Fini()

	var claims [tasks]atomic.Int32
	var drained atomic.Int64
	claim := func(t_ *task) {
		claims[t_.depth].Add(1)
		drained.Add(1)
	}
	var producing atomic.Bool
	producing.Store(true)

	var wg sync.WaitGroup
	for w := 1; w < P; w++ {
		w := w
		wg.Add(1)
		go func() { // thief on slot w: raid, then drain own relocated haul
			defer wg.Done()
			for producing.Load() || drained.Load() < tasks {
				tk := d.Steal(w, nil)
				if tk == nil {
					runtime.Gosched()
					continue
				}
				claim(tk)
				for {
					own := d.PopLocal(w, nil)
					if own == nil {
						break
					}
					claim(own)
				}
			}
		}()
	}

	for i := 0; i < tasks; i++ { // owner on slot 0
		d.Push(0, &task{depth: int32(i)})
		if i%3 == 0 {
			if tk := d.PopLocal(0, nil); tk != nil {
				claim(tk)
			}
		}
	}
	for { // owner drains its own remainder
		tk := d.PopLocal(0, nil)
		if tk == nil {
			break
		}
		claim(tk)
	}
	producing.Store(false)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("drain wedged: %d/%d tasks surfaced", drained.Load(), tasks)
	}

	for i := range claims {
		if n := claims[i].Load(); n != 1 {
			t.Fatalf("task %d surfaced %d times, want exactly once", i, n)
		}
	}
}

// TestStealBatchRegionAccounting runs a real single-generator region
// under a batched scheduler and checks the Stats stay truthful under
// batch semantics: StealAttempts counts raids (one per Steal call,
// not one per relocated task), while TasksStolen counts cross-worker
// executions — which include tasks a raid relocated and the thief
// later popped locally, so TasksStolen legitimately *exceeds* the
// raid count, and every successful raid contributes at least its
// directly-returned task.
func TestStealBatchRegionAccounting(t *testing.T) {
	for _, name := range []string{"workfirst(8)", "breadthfirst(8)"} {
		t.Run(name, func(t *testing.T) {
			raided := false
			// Whether any raid happens is a scheduling accident (on a
			// single-CPU host the generator can run the whole region
			// before another worker gets the processor), so retry a few
			// regions for one that exercises batching; the counter
			// invariants below must hold on every run regardless.
			for attempt := 0; attempt < 8 && !raided; attempt++ {
				var n atomic.Int64
				st := Parallel(4, func(c *Context) {
					c.Single(func(c *Context) {
						for i := 0; i < 400; i++ {
							c.Task(func(c *Context) {
								time.Sleep(20 * time.Microsecond)
								n.Add(1)
							})
						}
						c.Taskwait()
					})
				}, WithScheduler(name))
				if n.Load() != 400 {
					t.Fatalf("%d tasks ran, want 400", n.Load())
				}
				if st.TasksStolen > 0 && st.StealAttempts == 0 {
					t.Fatal("cross-worker execution with no recorded steal attempt")
				}
				if st.StealFails > st.StealAttempts {
					t.Fatalf("StealFails=%d > StealAttempts=%d", st.StealFails, st.StealAttempts)
				}
				hits := st.StealAttempts - st.StealFails
				if st.TasksStolen < hits {
					t.Fatalf("TasksStolen=%d < successful raids %d: each raid returns at least one task",
						st.TasksStolen, hits)
				}
				if st.TasksStolen > st.TotalTasks() {
					t.Fatalf("TasksStolen=%d exceeds total tasks %d", st.TasksStolen, st.TotalTasks())
				}
				raided = st.TasksStolen > 0
			}
			if !raided {
				t.Skip("no raids in 8 regions (single-CPU host): batch accounting not exercisable here")
			}
		})
	}
}
