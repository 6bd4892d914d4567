package omp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fib on the persistent team: the same task-per-node kernel the
// Parallel tests use, exercised as a submitted region.
func subFib(c *Context, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	c.Task(func(c *Context) { subFib(c, n-1, &a) })
	c.Task(func(c *Context) { subFib(c, n-2, &b) })
	c.Taskwait()
	*out = a + b
}

func TestPersistentTeamSubmitWait(t *testing.T) {
	pt := NewPersistentTeam(2)
	defer pt.Close()
	for i := 0; i < 20; i++ {
		var res int64
		st := pt.SubmitWait(func(c *Context) { subFib(c, 10, &res) })
		if res != 55 {
			t.Fatalf("submission %d: fib(10) = %d, want 55", i, res)
		}
		if st.TotalTasks() == 0 {
			t.Errorf("submission %d: stats delta reports zero tasks", i)
		}
	}
}

// TestPersistentTeamConformance is the region-reuse conformance suite:
// every registered scheduler, at one and at four workers, serves many
// submissions through one persistent team. After each submission the
// result must be correct; between submissions the queues must be
// drained and the live-task count back at zero (else state leaked
// across submissions); and the team must survive a mixed
// deferred/dependence workload. Run with -race in CI.
func TestPersistentTeamConformance(t *testing.T) {
	for _, sched := range Schedulers() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", sched, workers), func(t *testing.T) {
				pt := NewPersistentTeam(workers, WithScheduler(sched))
				defer func() {
					st := pt.Close()
					if st.TotalTasks() == 0 {
						t.Errorf("closed team reports zero total tasks")
					}
				}()
				const rounds = 30
				for i := 0; i < rounds; i++ {
					var res int64
					pt.SubmitWait(func(c *Context) { subFib(c, 8, &res) })
					if res != 21 {
						t.Fatalf("round %d: fib(8) = %d, want 21", i, res)
					}
					// Between submissions: no live task may remain and
					// every worker's ready backlog must be empty — a
					// leaked (queued but never run) task would violate
					// both.
					if lt := pt.tm.live(); lt != 0 {
						t.Fatalf("round %d: live() = %d after SubmitWait, want 0", i, lt)
					}
					for id := range pt.tm.workers {
						if q := pt.tm.sched.Queued(id); q != 0 {
							t.Fatalf("round %d: worker %d backlog = %d after SubmitWait, want 0", i, id, q)
						}
					}
				}
				// A dependence chain must work mid-life too (exercises
				// depTab recycling across submissions).
				var cell int
				pt.SubmitWait(func(c *Context) {
					for k := 0; k < 10; k++ {
						c.Task(func(c *Context) { cell++ }, InOut(&cell))
					}
					c.Taskwait()
				})
				if cell != 10 {
					t.Fatalf("dependence chain: cell = %d, want 10", cell)
				}
			})
		}
	}
}

// TestPersistentTeamSeedsAdvance pins that distinct persistent teams
// draw distinct scheduler seeds (the per-region sequence advances), so
// repeated service runs explore different steal orders just as
// repeated Parallel regions do.
func TestPersistentTeamSeedsAdvance(t *testing.T) {
	seeds := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		pt := NewPersistentTeam(2, WithScheduler("workfirst"))
		pt.SubmitWait(func(c *Context) {
			var r int64
			subFib(c, 6, &r)
		})
		st := pt.Close()
		if st.SchedulerSeed == 0 {
			t.Fatalf("team %d: workfirst scheduler reported zero seed", i)
		}
		if seeds[st.SchedulerSeed] {
			t.Fatalf("team %d: seed %#x repeated across teams", i, st.SchedulerSeed)
		}
		seeds[st.SchedulerSeed] = true
	}
}

// TestPersistentTeamStatsRace samples Stats() from an outside
// goroutine while workers execute submissions. Under -race this pins
// the mid-region snapshot satellite: the counters must be readable
// while every worker is running.
func TestPersistentTeamStatsRace(t *testing.T) {
	pt := NewPersistentTeam(4)
	stop := make(chan struct{})
	var sampled atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := pt.Stats()
			if st.TotalTasks() < 0 {
				t.Error("negative task count")
				return
			}
			sampled.Add(1)
		}
	}()
	for i := 0; i < 50; i++ {
		var res int64
		pt.SubmitWait(func(c *Context) { subFib(c, 10, &res) })
		if res != 55 {
			t.Fatalf("fib(10) = %d, want 55", res)
		}
	}
	close(stop)
	sampler.Wait()
	pt.Close()
	if sampled.Load() == 0 {
		t.Error("sampler never ran")
	}
}

// TestSubmitWaitStatsExact pins the per-task counters of serialized
// SubmitWait deltas to closed-form counts. Workers copy those counters
// into the shared stats only at park, exit and the group leave in
// finish; a delta that missed a copy would read short.
func TestSubmitWaitStatsExact(t *testing.T) {
	const n = 12
	var node func(c *Context, n int)
	node = func(c *Context, n int) {
		c.AddWork(1)
		if n < 2 {
			return
		}
		c.Task(func(c *Context) { node(c, n-1) }, Captured(16))
		c.Task(func(c *Context) { node(c, n-2) }, Captured(16))
		c.Taskwait()
	}
	calls := 2*fibSeq(n+1) - 1 // nodes of the fib(n) call tree; the root is the submission
	want := Stats{
		TasksCreated:  calls - 1,
		Taskwaits:     (calls - 1) / 2,
		WorkUnits:     calls,
		CapturedBytes: 16 * (calls - 1),
	}
	for _, workers := range []int{1, 2, 4} {
		pt := NewPersistentTeam(workers)
		for i := 0; i < 30; i++ {
			st := pt.SubmitWait(func(c *Context) { node(c, n) })
			got := Stats{TasksCreated: st.TasksCreated, Taskwaits: st.Taskwaits, WorkUnits: st.WorkUnits, CapturedBytes: st.CapturedBytes}
			if got != want {
				t.Fatalf("workers=%d submission %d: delta %+v, want %+v", workers, i, got, want)
			}
		}
		pt.Close()
	}
}

// TestPersistentTeamDetached exercises the callback completion path
// used by internal/serve's open-loop generator.
func TestPersistentTeamDetached(t *testing.T) {
	pt := NewPersistentTeam(2)
	const n = 40
	var done atomic.Int64
	results := make([]int64, n)
	for i := 0; i < n; i++ {
		i := i
		pt.SubmitDetached(func(c *Context) {
			subFib(c, 9, &results[i])
		}, func() { done.Add(1) })
	}
	pt.Drain()
	if got := done.Load(); got != n {
		t.Fatalf("onDone ran %d times before Drain returned, want %d", got, n)
	}
	for i, r := range results {
		if r != 34 {
			t.Fatalf("request %d: fib(9) = %d, want 34", i, r)
		}
	}
	pt.Close()
}

// TestPersistentTeamConcurrentSubmitters pushes submissions from many
// goroutines at once — the service front door is multi-producer.
func TestPersistentTeamConcurrentSubmitters(t *testing.T) {
	pt := NewPersistentTeam(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var res int64
				pt.SubmitWait(func(c *Context) { subFib(c, 8, &res) })
				total.Add(res)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*10*21 {
		t.Fatalf("total = %d, want %d", got, 8*10*21)
	}
	st := pt.Close()
	if lt := pt.tm.live(); lt != 0 {
		t.Errorf("live() = %d after Close, want 0", lt)
	}
	if st.TotalTasks() == 0 {
		t.Errorf("no tasks recorded")
	}
}

// TestPersistentTeamPanicAtClose: a panicking submission completes
// (the waiter is released) and the panic surfaces at Close.
func TestPersistentTeamPanicAtClose(t *testing.T) {
	pt := NewPersistentTeam(2)
	pt.SubmitWait(func(c *Context) { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("Close recovered %v, want \"boom\"", r)
		}
	}()
	pt.Close()
	t.Fatal("Close did not re-raise the submission panic")
}

// TestPersistentTeamSubmitAllocs pins the steady-state allocation
// cost of the service hot path on a one-worker team: after warm-up,
// a submitted region and all its tasks must reuse pooled structures
// (the submission struct, the root task, the spawned tasks through
// the owner grave flush), so a whole request costs exactly 0
// allocations, under race as well.
func TestPersistentTeamSubmitAllocs(t *testing.T) {
	pt := NewPersistentTeam(1)
	defer pt.Close()
	body := func(c *Context) {
		for i := 0; i < 16; i++ {
			c.Task(func(c *Context) {})
		}
		c.Taskwait()
	}
	for i := 0; i < 50; i++ { // warm the pools
		pt.SubmitWait(body)
	}
	got := testing.AllocsPerRun(300, func() { pt.SubmitWait(body) })
	if got != 0 {
		t.Errorf("persistent submit: %.3f allocs/request, want 0", got)
	}
}
