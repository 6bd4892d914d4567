package omp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLiveTasksReturnToZero is the regression net over the live-task
// accounting audit: every task (deferred or undeferred) is counted
// created once, and counted finished in exactly one of finish
// (deferred, via execute's deferred call — which runs once even when
// the body panics) or finishInline (undeferred). The live count must
// read zero after every region, whatever mix of paths ran — a double
// finish on the undeferred/panic paths would both wedge the accounting
// and, since recycling keys off the same completion points, double-free
// a pooled task.
func TestLiveTasksReturnToZero(t *testing.T) {
	var checked atomic.Int64
	prev := regionEndHook
	regionEndHook = func(tm *Team) {
		checked.Add(1)
		if live := tm.live(); live != 0 {
			t.Errorf("live() = %d after region end, want 0", live)
		}
	}
	defer func() { regionEndHook = prev }()

	scenarios := []struct {
		name string
		body func(c *Context)
	}{
		{"DeferredTree", func(c *Context) {
			c.Single(func(c *Context) {
				var res int64
				c.Task(func(c *Context) { parFib(c, 12, &res) })
			})
		}},
		{"UndeferredIfFalse", func(c *Context) {
			c.Single(func(c *Context) {
				for i := 0; i < 32; i++ {
					c.Task(func(c *Context) {
						c.Task(func(c *Context) {}, If(false))
					}, If(false))
				}
			})
		}},
		{"MixedUndeferredWithDeferredChildren", func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) {
					for i := 0; i < 8; i++ {
						c.Task(func(c *Context) {})
					}
					c.Taskwait()
				}, If(false))
			})
		}},
		{"FireAndForgetFromUndeferred", func(c *Context) {
			// Children outliving their undeferred parent: the parent
			// returns without a taskwait, the barrier drains them.
			c.Single(func(c *Context) {
				c.Task(func(c *Context) {
					for i := 0; i < 8; i++ {
						c.Task(func(c *Context) {})
					}
				}, If(false))
			})
		}},
		{"Dependences", func(c *Context) {
			c.Single(func(c *Context) {
				buf := new(int)
				for i := 0; i < 16; i++ {
					c.Task(func(c *Context) { *buf++ }, InOut(buf))
				}
				c.Taskwait()
			})
		}},
		{"Futures", func(c *Context) {
			c.Single(func(c *Context) {
				f := Spawn(c, func(c *Context) int {
					g := Spawn(c, func(c *Context) int { return 21 })
					return 2 * g.Wait(c)
				})
				if got := f.Wait(c); got != 42 {
					t.Errorf("future = %d, want 42", got)
				}
			})
		}},
		{"Taskgroup", func(c *Context) {
			c.Single(func(c *Context) {
				c.Taskgroup(func(c *Context) {
					for i := 0; i < 8; i++ {
						c.Task(func(c *Context) {
							c.Task(func(c *Context) {})
						})
					}
				})
			})
		}},
		{"PanicInDeferredTask", func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) { panic("deferred boom") })
			})
		}},
		{"PanicInUndeferredTask", func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) { panic("undeferred boom") }, If(false))
			})
		}},
		{"PanicWithSiblingsDraining", func(c *Context) {
			c.Single(func(c *Context) {
				for i := 0; i < 16; i++ {
					c.Task(func(c *Context) {})
				}
				c.Task(func(c *Context) { panic("boom among siblings") })
				c.Taskwait()
			})
		}},
	}

	runs := 0
	for _, sched := range Schedulers() {
		for _, cut := range []CutoffPolicy{NoCutoff{}, MaxTasks{Limit: 2}, MaxDepth{Limit: 3}} {
			for _, sc := range scenarios {
				runs++
				func() {
					defer func() { recover() }() // panic scenarios re-raise; the hook already ran
					Parallel(4, sc.body, WithScheduler(sched), WithCutoff(cut))
				}()
			}
		}
	}
	if got := checked.Load(); got != int64(runs) {
		t.Fatalf("region-end hook observed %d regions, want %d", got, runs)
	}
}

// TestLiveCountNoFalseZero pins the order in which Team.live reads the
// per-worker counters. An untied chain in which each task spawns its
// successor before it returns keeps at least one task live from the
// first spawn until the last task finishes, while both workers' counts
// keep moving. A goroutine outside the team samples live() throughout:
// reading the finished counts first can only overstate, so every
// sample must be at least 1. Reading the created counts first lets the
// chain advance between the two passes and reads 0 or less.
func TestLiveCountNoFalseZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// Each round takes a few hundred thousand samples on a 2-CPU host;
	// the wrong read order shows a handful of false zeros per round.
	const links = 20000
	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	var samples, falseZeros atomic.Int64
	for round := 0; round < rounds; round++ {
		var done atomic.Bool
		var chain func(c *Context, n int)
		chain = func(c *Context, n int) {
			if n == 0 {
				done.Store(true) // before this last link finishes
				return
			}
			c.Task(func(c *Context) { chain(c, n-1) }, Untied())
		}
		var sampler sync.WaitGroup
		Parallel(2, func(c *Context) {
			c.Single(func(c *Context) {
				tm := c.w.team
				c.Task(func(c *Context) { chain(c, links) }, Untied())
				sampler.Add(1)
				go func() {
					defer sampler.Done()
					for {
						v := tm.live()
						// done still false after the read: the last link
						// had not finished at any point of it.
						if done.Load() {
							return
						}
						samples.Add(1)
						if v < 1 {
							falseZeros.Add(1)
						}
					}
				}()
			})
		})
		sampler.Wait()
	}
	if n := falseZeros.Load(); n > 0 {
		t.Fatalf("live() read < 1 in %d of %d samples taken while a chain task was live", n, samples.Load())
	}
	if samples.Load() == 0 {
		t.Fatal("the sampler never ran while the chain was live")
	}
}
