package omp

import (
	"sync/atomic"
	"testing"
)

func TestTaskgroupWaitsForDescendants(t *testing.T) {
	// taskwait waits only for children; taskgroup must wait for the
	// whole subtree.
	var deep atomic.Int64
	Parallel(4, func(c *Context) {
		c.Single(func(c *Context) {
			c.Taskgroup(func(c *Context) {
				for i := 0; i < 8; i++ {
					c.Task(func(c *Context) {
						c.Task(func(c *Context) {
							c.Task(func(c *Context) { deep.Add(1) })
						})
					})
				}
			})
			// No barrier yet: the grandchildren must already be done.
			if got := deep.Load(); got != 8 {
				t.Errorf("after taskgroup: %d grand-grandchildren done, want 8", got)
			}
		})
	})
}

func TestTaskgroupNested(t *testing.T) {
	var inner, outer atomic.Int64
	Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			c.Taskgroup(func(c *Context) {
				c.Task(func(c *Context) {
					c.Taskgroup(func(c *Context) {
						c.Task(func(c *Context) { inner.Add(1) })
					})
					if inner.Load() != 1 {
						t.Error("inner taskgroup leaked")
					}
					outer.Add(1)
				})
			})
			if outer.Load() != 1 {
				t.Error("outer taskgroup did not wait")
			}
		})
	})
}

func TestSectionsDistribution(t *testing.T) {
	var ran [5]atomic.Int64
	var owners [5]atomic.Int64
	Parallel(3, func(c *Context) {
		c.Sections(
			func(c *Context) { ran[0].Add(1); owners[0].Store(int64(c.ThreadNum())) },
			func(c *Context) { ran[1].Add(1); owners[1].Store(int64(c.ThreadNum())) },
			func(c *Context) { ran[2].Add(1); owners[2].Store(int64(c.ThreadNum())) },
			func(c *Context) { ran[3].Add(1); owners[3].Store(int64(c.ThreadNum())) },
			func(c *Context) { ran[4].Add(1); owners[4].Store(int64(c.ThreadNum())) },
		)
	})
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Fatalf("section %d ran %d times, want exactly 1", i, ran[i].Load())
		}
	}
}

func TestSectionsMoreThreadsThanSections(t *testing.T) {
	var n atomic.Int64
	Parallel(8, func(c *Context) {
		c.Sections(func(c *Context) { n.Add(1) })
	})
	if n.Load() != 1 {
		t.Fatalf("single section ran %d times", n.Load())
	}
}

func TestReduceHelper(t *testing.T) {
	const threads = 5
	tp := NewThreadPrivate[int64](threads)
	var total int64
	Parallel(threads, func(c *Context) {
		*tp.Get(c) = int64(c.ThreadNum() + 1)
		Reduce(c, tp, 0, func(a, b int64) int64 { return a + b }, &total)
		// After Reduce's barrier all threads see the final value.
		if total != 15 {
			t.Errorf("thread %d sees reduction %d, want 15", c.ThreadNum(), total)
		}
	})
}

// TestReduceSeedsZero is the regression test for the zero parameter:
// Reduce must seed the accumulator with the given identity, so a
// stale value in *out (here 999) cannot leak into the result.
func TestReduceSeedsZero(t *testing.T) {
	const threads = 4
	tp := NewThreadPrivate[int64](threads)
	total := int64(999) // deliberately dirty
	Parallel(threads, func(c *Context) {
		*tp.Get(c) = int64(c.ThreadNum() + 1)
		Reduce(c, tp, 0, func(a, b int64) int64 { return a + b }, &total)
	})
	if total != 10 {
		t.Fatalf("Reduce with dirty *out = %d, want 10 (zero must seed the fold)", total)
	}
}

// TestReduceNonZeroIdentity checks a non-additive fold where the
// identity matters: min with a +Inf-like seed.
func TestReduceNonZeroIdentity(t *testing.T) {
	const threads = 4
	tp := NewThreadPrivate[int](threads)
	out := -5 // dirty and smaller than every value: wrong answer if used
	Parallel(threads, func(c *Context) {
		*tp.Get(c) = c.ThreadNum() + 10
		min := func(a, b int) int {
			if a < b {
				return a
			}
			return b
		}
		Reduce(c, tp, 1<<30, min, &out)
	})
	if out != 10 {
		t.Fatalf("min-reduction = %d, want 10", out)
	}
}

// TestReduceTwice checks that two Reduce constructs in one region get
// independent seeding (per-instance bookkeeping).
func TestReduceTwice(t *testing.T) {
	const threads = 3
	tp := NewThreadPrivate[int64](threads)
	var a, b int64
	Parallel(threads, func(c *Context) {
		*tp.Get(c) = 2
		Reduce(c, tp, 0, func(x, y int64) int64 { return x + y }, &a)
		Reduce(c, tp, 0, func(x, y int64) int64 { return x + y }, &b)
	})
	if a != 6 || b != 6 {
		t.Fatalf("two reductions = %d, %d; want 6, 6", a, b)
	}
}

func TestTaskgroupWithStats(t *testing.T) {
	st := Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			c.Taskgroup(func(c *Context) {
				for i := 0; i < 16; i++ {
					c.Task(func(c *Context) { c.AddWork(1) })
				}
			})
		})
	})
	if st.TasksCreated != 16 || st.WorkUnits != 16 {
		t.Fatalf("stats after taskgroup: %+v", st)
	}
}
