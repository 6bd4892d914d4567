package omp

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedulerRegistry pins the closed scheduler vocabulary and its
// error behaviour — every layer (lab manifests, CLI flags, sim
// replay) resolves names through it, so this is the contract those
// layers rely on.
func TestSchedulerRegistry(t *testing.T) {
	want := []string{"breadthfirst", "centralized", "locality", "workfirst"}
	names := Schedulers()
	if !slices.Equal(names, want) {
		t.Fatalf("Schedulers() = %v, want %v", names, want)
	}
	names[0] = "mutated"
	if again := Schedulers(); !slices.Equal(again, want) {
		t.Fatalf("mutating Schedulers()'s result changed a second call: %v", again)
	}
	s, err := NewScheduler("")
	if err != nil || s.Name() != DefaultScheduler {
		t.Fatalf(`NewScheduler("") = %v, %v; want the default %q`, s, err, DefaultScheduler)
	}
	if _, err := NewScheduler("bogus"); err == nil || !strings.Contains(err.Error(), "workfirst") {
		t.Fatalf("unknown-scheduler error should list the vocabulary, got %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WithScheduler should panic on an unknown name")
			}
		}()
		WithScheduler("bogus")
	}()
}

// TestSchedulerSeedPerRegion checks the per-region victim-selection
// seeding: the deque-family schedulers must surface a non-zero seed
// in Stats that differs across repeated regions (so steal orders are
// not replayed), while the centralized pool — no randomized decisions
// — reports zero.
func TestSchedulerSeedPerRegion(t *testing.T) {
	seeds := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		st := Parallel(2, func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) {})
				c.Taskwait()
			})
		}, WithScheduler("workfirst"))
		if st.SchedulerSeed == 0 {
			t.Fatal("workfirst region reported a zero scheduler seed")
		}
		if seeds[st.SchedulerSeed] {
			t.Fatalf("seed %#x repeated across regions", st.SchedulerSeed)
		}
		seeds[st.SchedulerSeed] = true
	}
	st := Parallel(2, func(c *Context) {}, WithScheduler("centralized"))
	if st.SchedulerSeed != 0 {
		t.Fatalf("centralized region reported seed %#x, want 0 (no randomized decisions)", st.SchedulerSeed)
	}
}

// TestCutoffRegistry checks the runtime cut-off name vocabulary.
func TestCutoffRegistry(t *testing.T) {
	want := []string{"adaptive", "maxdepth", "maxqueue", "maxtasks", "none"}
	names := Cutoffs()
	if !slices.Equal(names, want) {
		t.Fatalf("Cutoffs() = %v, want %v", names, want)
	}
	names[0] = "mutated"
	if again := Cutoffs(); !slices.Equal(again, want) {
		t.Fatalf("mutating Cutoffs()'s result changed a second call: %v", again)
	}
	for _, name := range want {
		if _, err := NewCutoff(name); err != nil {
			t.Errorf("NewCutoff(%q): %v", name, err)
		}
	}
	if p, err := NewCutoff(""); err != nil || p.Name() != "none" {
		t.Fatalf(`NewCutoff("") = %v, %v; want NoCutoff`, p, err)
	}
	if _, err := NewCutoff("sometimes"); err == nil || !strings.Contains(err.Error(), "maxtasks") {
		t.Fatalf("unknown-cutoff error should list the vocabulary, got %v", err)
	}
}

// TestSchedulerConformance runs the shared scheduler contract against
// every scheduler: the taskwait scheduling constraint and
// the tied-task constraint, dependence hold/release, priority
// ordering, panic propagation, and barrier drain must hold however
// tasks are queued and consumed.
func TestSchedulerConformance(t *testing.T) {
	for _, name := range Schedulers() {
		name := name
		t.Run(name, func(t *testing.T) {
			opt := WithScheduler(name)

			t.Run("TaskwaitFib", func(t *testing.T) {
				var got int64
				st := Parallel(4, func(c *Context) {
					c.Single(func(c *Context) {
						c.Task(func(c *Context) { parFib(c, 15, &got) })
					})
				}, opt)
				if want := fibSeq(15); got != want {
					t.Fatalf("fib(15) = %d, want %d", got, want)
				}
				if st.TotalTasks() == 0 {
					t.Fatal("no tasks recorded")
				}
			})

			// A thread suspended in a *tied* task's taskwait may only
			// execute descendants of that task: the sibling X must
			// never run inside P's wait, under any queue discipline.
			t.Run("TiedConstraint", func(t *testing.T) {
				var inPWait, violation atomic.Bool
				Parallel(1, func(c *Context) {
					c.Task(func(c *Context) { // X: sibling of P
						if inPWait.Load() {
							violation.Store(true)
						}
					})
					c.Task(func(c *Context) { // P: tied
						inPWait.Store(true)
						c.Task(func(c *Context) {})
						c.Taskwait() // may run P's child, never X
						inPWait.Store(false)
					})
					c.Taskwait()
				}, opt)
				if violation.Load() {
					t.Fatal("sibling task ran inside a tied task's taskwait")
				}
			})

			t.Run("DependenceHoldRelease", func(t *testing.T) {
				var x int64
				var bad atomic.Bool
				buf := new(int)
				st := Parallel(4, func(c *Context) {
					c.Single(func(c *Context) {
						c.Task(func(c *Context) {
							time.Sleep(2 * time.Millisecond)
							atomic.StoreInt64(&x, 1)
						}, Out(buf))
						c.Task(func(c *Context) {
							if atomic.LoadInt64(&x) != 1 {
								bad.Store(true)
							}
							atomic.StoreInt64(&x, 2)
						}, InOut(buf))
						c.Task(func(c *Context) {
							if atomic.LoadInt64(&x) != 2 {
								bad.Store(true)
							}
						}, In(buf))
					})
				}, opt)
				if bad.Load() {
					t.Fatal("dependence chain executed out of order")
				}
				if st.DepEdges < 2 {
					t.Fatalf("DepEdges = %d, want >= 2", st.DepEdges)
				}
				if st.TasksDepDeferred == 0 || st.DepReleases == 0 {
					t.Fatalf("expected held+released tasks, got %+v", st)
				}
			})

			// All four schedulers support the priority hint: on one
			// worker, prioritized ready tasks must run highest-first.
			t.Run("PriorityOrder", func(t *testing.T) {
				var order []int
				Parallel(1, func(c *Context) {
					c.Task(func(c *Context) {
						for _, p := range []int{2, 5, 1, 4, 3} {
							p := p
							c.Task(func(c *Context) { order = append(order, p) }, Priority(p))
						}
						c.Taskwait()
					})
					c.Taskwait()
				}, opt)
				want := []int{5, 4, 3, 2, 1}
				if len(order) != len(want) {
					t.Fatalf("ran %d prioritized tasks, want %d", len(order), len(want))
				}
				for i := range want {
					if order[i] != want[i] {
						t.Fatalf("execution order %v, want %v", order, want)
					}
				}
			})

			t.Run("PanicPropagation", func(t *testing.T) {
				var ran atomic.Int64
				func() {
					defer func() {
						if r := recover(); r != "boom" {
							t.Errorf("recovered %v, want boom", r)
						}
					}()
					Parallel(4, func(c *Context) {
						c.Single(func(c *Context) {
							for i := 0; i < 20; i++ {
								c.Task(func(c *Context) { ran.Add(1) })
							}
							c.Task(func(c *Context) { panic("boom") })
						})
					}, opt)
					t.Error("Parallel should re-raise the task panic")
				}()
				if ran.Load() != 20 {
					t.Errorf("region did not drain after panic: %d/20 tasks ran", ran.Load())
				}
			})

			t.Run("BarrierDrain", func(t *testing.T) {
				var n atomic.Int64
				Parallel(4, func(c *Context) {
					for i := 0; i < 50; i++ {
						c.Task(func(c *Context) { n.Add(1) })
					}
					c.Barrier()
					if got := n.Load(); got != 200 {
						t.Errorf("after barrier: %d tasks ran, want 200", got)
					}
				}, opt)
			})

			// A thief that parked on the doorbell (after the
			// advertisement word reported an empty team) must wake and
			// reach tasks that a worker advertises later: the region
			// starts with a long quiet phase — long past the spin
			// budget, so the other workers genuinely park — and only
			// then produces work. Pinning IdleParks > 0 proves the
			// park happened; completion of all tasks with cross-worker
			// execution proves the advertisement woke the parkers.
			t.Run("ParkedThiefWakesOnAdvertise", func(t *testing.T) {
				var ran atomic.Int64
				st := Parallel(4, func(c *Context) {
					c.Single(func(c *Context) {
						time.Sleep(10 * time.Millisecond) // peers exhaust spin and park
						for i := 0; i < 64; i++ {
							c.Task(func(c *Context) {
								time.Sleep(100 * time.Microsecond)
								ran.Add(1)
							})
						}
						c.Taskwait()
					})
				}, opt)
				if got := ran.Load(); got != 64 {
					t.Fatalf("%d tasks ran, want 64", got)
				}
				if st.IdleParks == 0 {
					t.Fatal("no worker parked during the quiet phase; the wake path was not exercised")
				}
				if st.TasksStolen == 0 {
					t.Fatal("all tasks ran on the producer: parked workers never picked up advertised work")
				}
			})

			// A single generator on a multi-worker team: the other
			// workers must reach the queued tasks (by stealing, or via
			// the shared pool) and every task must run exactly once.
			t.Run("WorkDistribution", func(t *testing.T) {
				var n atomic.Int64
				st := Parallel(4, func(c *Context) {
					c.Single(func(c *Context) {
						for i := 0; i < 200; i++ {
							c.Task(func(c *Context) {
								time.Sleep(100 * time.Microsecond)
								n.Add(1)
							})
						}
						c.Taskwait()
					})
				}, opt)
				if n.Load() != 200 {
					t.Fatalf("%d tasks ran, want 200", n.Load())
				}
				if st.TasksStolen == 0 {
					t.Fatal("single generator, 4 workers: expected cross-worker execution")
				}
			})
		})
	}
}
