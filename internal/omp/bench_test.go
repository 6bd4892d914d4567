package omp

// EPCC-style microbenchmarks (Bull, EWOMP 1999 — the paper's related
// work) for the runtime's constructs: parallel region open/close,
// task creation/execution on the deferred and undeferred paths,
// taskwait, barrier, worksharing schedules, single, critical
// contention, and threadprivate access.

import (
	"sync/atomic"
	"testing"
)

func BenchmarkParallelRegionOpenClose(b *testing.B) {
	for _, threads := range []int{1, 4} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Parallel(threads, func(c *Context) {})
			}
		})
	}
}

func BenchmarkTaskSpawnAndDrain(b *testing.B) {
	b.ReportAllocs()
	Parallel(1, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Task(func(c *Context) {})
			if i%256 == 255 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	})
}

func BenchmarkTaskUndeferredPath(b *testing.B) {
	b.ReportAllocs()
	Parallel(1, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Task(func(c *Context) {}, If(false))
		}
	})
}

// fibFrame is one fib task's argument in a TaskFunc cell, with the
// result slots its children write.
type fibFrame struct {
	n   int
	dst *int64
	ab  [2]int64
}

// newFibCells returns parFib on a TaskFunc: a task's argument and its
// children's results live in its recycled cell, not in a closure.
func newFibCells(threads int) *TaskFunc[fibFrame] {
	var tf *TaskFunc[fibFrame]
	tf = NewTaskFunc(threads, func(c *Context, f *fibFrame) {
		if f.n < 2 {
			*f.dst = int64(f.n)
			return
		}
		tf.Task(c, fibFrame{n: f.n - 1, dst: &f.ab[0]})
		tf.Task(c, fibFrame{n: f.n - 2, dst: &f.ab[1]})
		c.Taskwait()
		*f.dst = f.ab[0] + f.ab[1]
	})
	return tf
}

func BenchmarkFibTaskThroughput(b *testing.B) {
	// End-to-end task throughput on the canonical recursive pattern,
	// spawned through a body closure per task (Context.Task) and
	// through a TaskFunc's recycled cells. At two threads both workers
	// spawn and finish tasks on their own, which is where a word every
	// task writes turns into cross-core traffic; ns/task is wall time
	// over every task of every region. parks/region counts taskwait
	// parks: tied waiters idling behind a steal show up there first.
	for _, spawn := range []string{"closure", "cell"} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(spawn+"/"+benchName("threads", threads), func(b *testing.B) {
				b.ReportAllocs()
				cells := newFibCells(threads)
				var tasks, parks int64
				for i := 0; i < b.N; i++ {
					var res int64
					st := Parallel(threads, func(c *Context) {
						c.Single(func(c *Context) {
							if spawn == "cell" {
								cells.Task(c, fibFrame{n: 16, dst: &res})
							} else {
								c.Task(func(c *Context) { parFib(c, 16, &res) })
							}
						})
					})
					tasks += st.TotalTasks()
					parks += st.TaskwaitParks
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
				b.ReportMetric(float64(parks)/float64(b.N), "parks/region")
			})
		}
	}
}

func BenchmarkBarrierLatency(b *testing.B) {
	for _, threads := range []int{2, 8} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			Parallel(threads, func(c *Context) {
				for i := 0; i < b.N; i++ {
					c.Barrier()
				}
			})
		})
	}
}

func BenchmarkForSchedules(b *testing.B) {
	const iters = 4096
	for _, tc := range []struct {
		name string
		opts []ForOpt
	}{
		{"static", nil},
		{"dynamic1", []ForOpt{WithSchedule(Dynamic, 1)}},
		{"dynamic64", []ForOpt{WithSchedule(Dynamic, 64)}},
		{"guided", []ForOpt{WithSchedule(Guided, 1)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var sink atomic.Int64
			Parallel(4, func(c *Context) {
				for i := 0; i < b.N; i++ {
					c.For(0, iters, func(c *Context, j int) {
						sink.Add(1)
					}, tc.opts...)
				}
			})
		})
	}
}

func BenchmarkSingleConstruct(b *testing.B) {
	Parallel(4, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.SingleNowait(func(c *Context) {})
		}
		c.Barrier()
	})
}

func BenchmarkCriticalUncontended(b *testing.B) {
	Parallel(1, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Critical("bench-uncontended", func() {})
		}
	})
}

func BenchmarkCriticalContended(b *testing.B) {
	var counter int64
	Parallel(8, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Critical("bench-contended", func() { counter++ })
		}
	})
}

func BenchmarkThreadPrivateAccess(b *testing.B) {
	tp := NewThreadPrivate[int64](4)
	Parallel(4, func(c *Context) {
		mine := tp.Get(c)
		for i := 0; i < b.N; i++ {
			*mine++
		}
	})
}

func BenchmarkDequePushPop(b *testing.B) {
	b.ReportAllocs()
	d := newDeque()
	t := &task{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pushBottom(t)
		d.popBottom()
	}
}

func BenchmarkDequeStealContention(b *testing.B) {
	d := newDeque()
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					d.steal()
				}
			}
		}()
	}
	t := &task{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pushBottom(t)
		d.popBottom()
	}
	close(stop)
}

func benchName(k string, v int) string {
	return k + "=" + string(rune('0'+v/10)) + string(rune('0'+v%10))
}
