package omp

import (
	"runtime"
	"sync/atomic"
	"testing"

	"bots/internal/trace"
)

func init() {
	// The test host may have a single core; force real interleaving
	// so the runtime's concurrency is actually exercised.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

// parFib runs the canonical BOTS fib pattern through the runtime.
func parFib(c *Context, n int, res *int64, opts ...TaskOpt) {
	if n < 2 {
		*res = int64(n)
		return
	}
	var a, b int64
	c.Task(func(c *Context) { parFib(c, n-1, &a, opts...) }, opts...)
	c.Task(func(c *Context) { parFib(c, n-2, &b, opts...) }, opts...)
	c.Taskwait()
	*res = a + b
}

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func TestParallelFibTied(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		var got int64
		Parallel(threads, func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) { parFib(c, 18, &got) })
			})
		})
		if want := fibSeq(18); got != want {
			t.Fatalf("threads=%d: fib(18) = %d, want %d", threads, got, want)
		}
	}
}

func TestParallelFibUntied(t *testing.T) {
	for _, threads := range []int{1, 3, 7} {
		var got int64
		Parallel(threads, func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) { parFib(c, 17, &got, Untied()) }, Untied())
			})
		})
		if want := fibSeq(17); got != want {
			t.Fatalf("threads=%d: untied fib(17) = %d, want %d", threads, got, want)
		}
	}
}

func TestIfClauseUndefersTasks(t *testing.T) {
	var got int64
	st := Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			var rec func(c *Context, n int, res *int64)
			rec = func(c *Context, n int, res *int64) {
				if n < 2 {
					*res = int64(n)
					return
				}
				var a, b int64
				deep := c.Depth() >= 3
				c.Task(func(c *Context) { rec(c, n-1, &a) }, If(!deep))
				c.Task(func(c *Context) { rec(c, n-2, &b) }, If(!deep))
				c.Taskwait()
				*res = a + b
			}
			c.Task(func(c *Context) { rec(c, 15, &got) })
		})
	})
	if want := fibSeq(15); got != want {
		t.Fatalf("fib(15) with if cut-off = %d, want %d", got, want)
	}
	if st.TasksUndeferred == 0 {
		t.Fatal("expected some undeferred tasks with an if-clause cut-off")
	}
	if st.TasksCreated == 0 {
		t.Fatal("expected some deferred tasks above the cut-off depth")
	}
}

func TestRuntimeCutoffMaxTasks(t *testing.T) {
	var got int64
	st := Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) { parFib(c, 16, &got) })
		})
	}, WithCutoff(MaxTasks{Limit: 4}))
	if want := fibSeq(16); got != want {
		t.Fatalf("fib(16) = %d, want %d", got, want)
	}
	if st.TasksUndeferred == 0 {
		t.Fatal("MaxTasks cut-off should undefer tasks under load")
	}
}

func TestRuntimeCutoffMaxDepth(t *testing.T) {
	var got int64
	st := Parallel(4, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) { parFib(c, 16, &got) })
		})
	}, WithCutoff(MaxDepth{Limit: 4}))
	if want := fibSeq(16); got != want {
		t.Fatalf("fib(16) = %d, want %d", got, want)
	}
	if st.TasksCreated >= st.TotalTasks() {
		t.Fatal("MaxDepth cut-off should undefer deep tasks")
	}
}

func TestBreadthFirstPolicy(t *testing.T) {
	var got int64
	Parallel(4, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) { parFib(c, 15, &got) })
		})
	}, WithScheduler("breadthfirst"))
	if want := fibSeq(15); got != want {
		t.Fatalf("fib(15) breadth-first = %d, want %d", got, want)
	}
}

func TestBarrierDrainsTasks(t *testing.T) {
	var n atomic.Int64
	Parallel(4, func(c *Context) {
		// Every thread creates tasks, then everyone meets at a
		// barrier: all tasks must be done when it releases.
		for i := 0; i < 50; i++ {
			c.Task(func(c *Context) { n.Add(1) })
		}
		c.Barrier()
		if got := n.Load(); got != 200 {
			t.Errorf("after barrier: %d tasks ran, want 200", got)
		}
	})
}

func TestRegionEndDrainsTasks(t *testing.T) {
	var n atomic.Int64
	Parallel(3, func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Task(func(c *Context) { n.Add(1) })
		}
		// No explicit barrier or taskwait: the implicit region-end
		// barrier must run everything.
	})
	if got := n.Load(); got != 300 {
		t.Fatalf("region end: %d tasks ran, want 300", got)
	}
}

func TestTaskwaitWaitsOnlyForChildren(t *testing.T) {
	order := make(chan string, 16)
	Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) {
				c.Task(func(c *Context) {
					// Grandchild: taskwait in the parent below must
					// NOT wait for this (it waits for children only).
					order <- "grandchild"
				})
				order <- "child"
				// Note: no taskwait here; grandchild may outlive us.
			})
			c.Taskwait()
			order <- "after-taskwait"
		})
	})
	close(order)
	var events []string
	for e := range order {
		events = append(events, e)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(events), events)
	}
	if events[0] != "child" {
		t.Fatalf("first event = %q, want child (taskwait must wait for the child)", events[0])
	}
}

func TestSingleExecutesOnce(t *testing.T) {
	var n atomic.Int64
	Parallel(8, func(c *Context) {
		for i := 0; i < 10; i++ {
			c.Single(func(c *Context) { n.Add(1) })
		}
	})
	if n.Load() != 10 {
		t.Fatalf("10 single constructs on 8 threads ran %d bodies, want 10", n.Load())
	}
}

func TestForSchedules(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name string
		opts []ForOpt
	}{
		{"static", nil},
		{"static-chunk", []ForOpt{WithSchedule(Static, 7)}},
		{"dynamic", []ForOpt{WithSchedule(Dynamic, 13)}},
		{"guided", []ForOpt{WithSchedule(Guided, 4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := make([]atomic.Int32, n)
			Parallel(4, func(c *Context) {
				c.For(0, n, func(c *Context, i int) {
					counts[i].Add(1)
				}, tc.opts...)
			})
			for i := range counts {
				if counts[i].Load() != 1 {
					t.Fatalf("iteration %d ran %d times, want 1", i, counts[i].Load())
				}
			}
		})
	}
}

func TestForWithTasksInside(t *testing.T) {
	// The Alignment pattern: worksharing loop whose body spawns tasks.
	const n = 64
	var sum atomic.Int64
	Parallel(4, func(c *Context) {
		c.For(0, n, func(c *Context, i int) {
			v := int64(i)
			c.Task(func(c *Context) { sum.Add(v) })
		}, WithSchedule(Dynamic, 1))
		// implicit barrier must also drain the spawned tasks
		if got := sum.Load(); got != n*(n-1)/2 {
			t.Errorf("after for-barrier sum = %d, want %d", got, n*(n-1)/2)
		}
	})
}

func TestForEmptyAndNowait(t *testing.T) {
	var n atomic.Int64
	Parallel(3, func(c *Context) {
		c.For(5, 5, func(c *Context, i int) { n.Add(1) })
		c.For(0, 30, func(c *Context, i int) { n.Add(1) })
		c.Barrier()
	})
	if n.Load() != 30 {
		t.Fatalf("ran %d iterations, want 30", n.Load())
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	var counter int // protected only by the critical section
	Parallel(8, func(c *Context) {
		for i := 0; i < 1000; i++ {
			c.Critical("ctr", func() { counter++ })
		}
	})
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestThreadPrivateReduction(t *testing.T) {
	const threads = 6
	tp := NewThreadPrivate[int64](threads)
	var global int64
	Parallel(threads, func(c *Context) {
		mine := tp.Get(c)
		c.For(0, 600, func(c *Context, i int) {
			*mine++
		}, WithSchedule(Dynamic, 1))
		c.Barrier()
		// The NQueens reduction pattern: each thread folds its
		// threadprivate count into the global under a critical.
		c.Critical("reduce", func() { global += *mine })
	})
	if global != 600 {
		t.Fatalf("reduced = %d, want 600", global)
	}
}

func TestStatsAccounting(t *testing.T) {
	st := Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			for i := 0; i < 10; i++ {
				c.Task(func(c *Context) {
					c.AddWork(5)
					c.AddWrites(3, 1)
				}, Captured(16))
			}
			c.Taskwait()
		})
	})
	if st.TotalTasks() != 10 {
		t.Fatalf("TotalTasks = %d, want 10", st.TotalTasks())
	}
	if st.CapturedBytes != 160 {
		t.Fatalf("CapturedBytes = %d, want 160", st.CapturedBytes)
	}
	if st.WorkUnits != 50 {
		t.Fatalf("WorkUnits = %d, want 50", st.WorkUnits)
	}
	if st.PrivateWrites != 30 || st.SharedWrites != 10 {
		t.Fatalf("writes = %d/%d, want 30/10", st.PrivateWrites, st.SharedWrites)
	}
	if st.Taskwaits != 1 {
		t.Fatalf("Taskwaits = %d, want 1", st.Taskwaits)
	}
	if st.String() == "" {
		t.Fatal("Stats.String should be non-empty")
	}
}

func TestDepthTracking(t *testing.T) {
	var d0, d1, d2 int
	Parallel(1, func(c *Context) {
		d0 = c.Depth()
		c.Task(func(c *Context) {
			d1 = c.Depth()
			c.Task(func(c *Context) { d2 = c.Depth() })
			c.Taskwait()
		})
		c.Taskwait()
	})
	if d0 != 0 || d1 != 1 || d2 != 2 {
		t.Fatalf("depths = %d/%d/%d, want 0/1/2", d0, d1, d2)
	}
}

func TestTracingProducesValidTrace(t *testing.T) {
	rec := trace.NewRecorder()
	var got int64
	Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) {
				c.AddWork(1)
				parFibTraced(c, 10, &got)
			})
		})
	}, WithRecorder(rec))
	tr := rec.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if got != fibSeq(10) {
		t.Fatalf("fib(10) = %d, want %d", got, fibSeq(10))
	}
	if tr.NumRoots != 2 {
		t.Fatalf("NumRoots = %d, want 2", tr.NumRoots)
	}
	if tr.NumTasks() < 10 {
		t.Fatalf("NumTasks = %d, want many", tr.NumTasks())
	}
	if tr.TotalWork() == 0 {
		t.Fatal("TotalWork = 0, want > 0")
	}
	if cp := tr.CriticalPath(); cp <= 0 || cp > tr.TotalWork() {
		t.Fatalf("CriticalPath = %d, want in (0, %d]", cp, tr.TotalWork())
	}
}

func parFibTraced(c *Context, n int, res *int64) {
	c.AddWork(1)
	if n < 2 {
		*res = int64(n)
		return
	}
	var a, b int64
	c.Task(func(c *Context) { parFibTraced(c, n-1, &a) })
	c.Task(func(c *Context) { parFibTraced(c, n-2, &b) })
	c.Taskwait()
	*res = a + b
}

func TestDeepRecursionManyTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var got int64
	st := Parallel(4, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) { parFib(c, 22, &got) })
		})
	})
	if want := fibSeq(22); got != want {
		t.Fatalf("fib(22) = %d, want %d", got, want)
	}
	if st.TotalTasks() < 10000 {
		t.Fatalf("TotalTasks = %d, want tens of thousands", st.TotalTasks())
	}
}

func TestZeroAndOneThreadTeams(t *testing.T) {
	var got int64
	Parallel(0, func(c *Context) { // clamps to 1
		if c.NumThreads() != 1 {
			t.Errorf("NumThreads = %d, want 1", c.NumThreads())
		}
		c.Task(func(c *Context) { parFib(c, 12, &got) })
		c.Taskwait()
	})
	if want := fibSeq(12); got != want {
		t.Fatalf("fib(12) = %d, want %d", got, want)
	}
}

func TestScheduleStrings(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("Schedule.String mismatch")
	}
	if Schedule(99).String() != "unknown" {
		t.Fatal("unknown enums should stringify to unknown")
	}
}

func TestCutoffPolicyNames(t *testing.T) {
	for _, p := range []CutoffPolicy{NoCutoff{}, MaxTasks{8}, MaxQueue{8}, MaxDepth{3}, Adaptive{}} {
		if p.Name() == "" {
			t.Fatalf("%T has empty name", p)
		}
	}
}
