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

func BenchmarkTaskFinalPath(b *testing.B) {
	b.ReportAllocs()
	Parallel(1, func(c *Context) {
		c.Task(func(c *Context) {
			for i := 0; i < b.N; i++ {
				c.Task(func(c *Context) {})
			}
		}, Final(true))
		c.Taskwait()
	})
}

func BenchmarkFibTaskThroughput(b *testing.B) {
	// End-to-end task throughput on the canonical recursive pattern.
	// At two threads both workers spawn and finish tasks on their own,
	// which is where a word every task writes turns into cross-core
	// traffic; ns/task is wall time over every task of every region.
	// parks/region counts taskwait parks: tied waiters idling behind a
	// steal show up there first.
	for _, threads := range []int{1, 2, 4} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			var tasks, parks int64
			for i := 0; i < b.N; i++ {
				var res int64
				st := Parallel(threads, func(c *Context) {
					c.Single(func(c *Context) {
						c.Task(func(c *Context) { parFib(c, 16, &res) })
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
