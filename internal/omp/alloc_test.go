package omp

import (
	"runtime"
	"testing"
)

// Steady-state allocation regression tests for the spawn hot paths.
// After a warm-up region fills the recycling tiers (pool.go), a
// deferred or undeferred task costs no runtime allocation at all (the
// task struct is recycled and the execution Context is embedded in
// it), and a consumed Future spawn is likewise free (the cell comes
// from a typed pool and recycles at region end; see future.go).
// Thresholds leave headroom for a GC emptying the pool
// mid-measurement; the pre-recycling runtime sat at ~4 (deferred),
// ~3 (undeferred) and ~8 (future) allocations per task, so even the
// loosest bound here pins a >50% reduction.
//
// These measurements run on a one-thread team: AllocsPerRun pins
// GOMAXPROCS to 1, and a single worker keeps the counts deterministic
// (no stealing, no racing pool refills). They bound the spawn paths'
// own cost; TestTaskAllocsSustained below bounds a long multi-worker
// region, which is what the benchmark runs.

const allocTasks = 2000

func allocsPerTask(t *testing.T, body func(c *Context)) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() { Parallel(1, body) }) / allocTasks
}

func TestTaskAllocsDeferred(t *testing.T) {
	noop := func(c *Context) {}
	got := allocsPerTask(t, func(c *Context) {
		for i := 0; i < allocTasks; i++ {
			c.Task(noop)
			if i%64 == 63 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	})
	if got > 1.0 {
		t.Errorf("deferred spawn path: %.3f allocs/task, want <= 1.0 (steady state is ~0)", got)
	}
}

func TestTaskAllocsUndeferred(t *testing.T) {
	noop := func(c *Context) {}
	got := allocsPerTask(t, func(c *Context) {
		for i := 0; i < allocTasks; i++ {
			c.Task(noop, If(false))
		}
	})
	if got > 1.0 {
		t.Errorf("undeferred spawn path: %.3f allocs/task, want <= 1.0 (steady state is ~0)", got)
	}
}

func TestFutureSpawnAllocs(t *testing.T) {
	fn := func(c *Context) int { return 1 }
	got := allocsPerTask(t, func(c *Context) {
		var fs [64]*Future[int]
		for i := 0; i < allocTasks; i++ {
			fs[i%64] = Spawn(c, fn)
			if i%64 == 63 {
				for _, f := range fs {
					f.Wait(c)
				}
			}
		}
		c.Taskwait()
	})
	// Since the typed cell pools (futPoolFor, future.go), a consumed
	// Future costs no per-spawn heap object at all: the cell recycles
	// at region end exactly like the task struct. Every future in the
	// loop is Wait()ed, so steady state is ~0 (the residue is the
	// per-region futGrave slice growth, amortized over allocTasks).
	// Under race the cell pool drops a random fraction of its traffic
	// (see raceEnabled), so only the order of magnitude is pinned.
	limit := 0.05
	if raceEnabled {
		limit = 0.6
	}
	if got > limit {
		t.Errorf("future spawn path: %.3f allocs/task, want <= %.2f (steady state is ~0)", got, limit)
	}
}

// TestDependenceAllocsSteadyState pins the dependence-table recycling:
// a parent resolving depend clauses reuses a pooled tracker and its
// entry structs, so a chain of dependent siblings costs a small
// constant per task (successor-list append), not a map + entry per
// parent.
func TestDependenceAllocsSteadyState(t *testing.T) {
	buf := new(int)
	body := func(c *Context) { *buf++ }
	got := allocsPerTask(t, func(c *Context) {
		for i := 0; i < allocTasks; i++ {
			c.Task(body, InOut(buf))
			if i%64 == 63 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	})
	if got > 3.0 {
		t.Errorf("dependent spawn path: %.3f allocs/task, want <= 3.0", got)
	}
}

// fibNode is one node of a prebuilt fib-shaped task tree: every body
// closure exists before the measured region starts, so whatever the
// region allocates, the runtime allocated.
type fibNode struct {
	left, right *fibNode
	body        func(*Context)
}

func buildFibTree(n int, opts []TaskOpt, nodes *int) *fibNode {
	nd := &fibNode{}
	*nodes++
	if n >= 2 {
		nd.left = buildFibTree(n-1, opts, nodes)
		nd.right = buildFibTree(n-2, opts, nodes)
	}
	nd.body = func(c *Context) {
		if nd.left == nil {
			return
		}
		c.Task(nd.left.body, opts...)
		c.Task(nd.right.body, opts...)
		c.Taskwait()
	}
	return nd
}

// TestTaskAllocsSustained is the absolute allocation ceiling for the
// regime the benchmark measures: a multi-worker region that sustains
// hundreds of thousands of fine-grained deferred tasks, far past any
// warm-up. The one-thread 2000-task gates above cannot see it — before
// in-region reclamation (pool.go, tier 2) they passed while such a
// region paid about one task struct and, with a parked waiter, one
// wake channel per task. The second assertion is a count, not a
// timing, and does not grow with the region: the free lists, limbo
// and the global pool all coming up empty may happen while the first
// batches fill (or while a thief sits on structs their creator wants
// back), never in steady state.
func TestTaskAllocsSustained(t *testing.T) {
	const fibN = 25 // 242785 tasks
	for _, tc := range []struct {
		name string
		opts []TaskOpt
	}{
		{"tied", []TaskOpt{Captured(16)}},
		{"untied", []TaskOpt{Captured(16), Untied()}},
	} {
		nodes := 0
		root := buildFibTree(fibN, tc.opts, &nodes)
		if nodes < 200000 {
			t.Fatalf("tree has %d nodes, want >= 200000", nodes)
		}
		for _, workers := range []int{2, 4} {
			region := func() *Stats {
				return Parallel(workers, func(c *Context) {
					c.Single(func(c *Context) { c.Task(root.body, tc.opts...) })
				})
			}
			region() // grows the scheduler's pooled queue storage
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := region()
			runtime.ReadMemStats(&after)
			if st.TasksCreated != int64(nodes) {
				t.Fatalf("%s/%d: created %d tasks, want %d", tc.name, workers, st.TasksCreated, nodes)
			}
			perTask := float64(after.Mallocs-before.Mallocs) / float64(nodes)
			t.Logf("%s/%d workers: %.4f allocs/task, reclaimed %d, pool misses %d, taskwait parks %d",
				tc.name, workers, perTask, st.TasksReclaimed, st.TaskPoolMisses, st.TaskwaitParks)
			if perTask > 0.05 {
				t.Errorf("%s/%d workers: %.4f runtime allocs/task over %d tasks, want <= 0.05",
					tc.name, workers, perTask, nodes)
			}
			// A worker holds at most two batches on its free list and two
			// in limbo; once every worker has that much, nobody allocates.
			// (Not under race: sync.Pool then drops a quarter of what the
			// free lists overflow into it; see raceEnabled.)
			if max := int64(4 * limboBatch * workers); !raceEnabled && st.TaskPoolMisses > max {
				t.Errorf("%s/%d workers: %d task-pool misses, want <= %d (4 limbo batches per worker)",
					tc.name, workers, st.TaskPoolMisses, max)
			}
			if st.TasksReclaimed < int64(nodes)*9/10 {
				t.Errorf("%s/%d workers: only %d of %d tasks reclaimed in-region",
					tc.name, workers, st.TasksReclaimed, nodes)
			}
		}
	}
}
