package omp

import (
	"strings"
	"testing"
)

func TestTaskPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Parallel should re-raise a task panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	Parallel(4, func(c *Context) {
		c.Single(func(c *Context) {
			for i := 0; i < 10; i++ {
				i := i
				c.Task(func(c *Context) {
					if i == 7 {
						panic("boom")
					}
				})
			}
			c.Taskwait()
		})
	})
}

func TestRegionBodyPanicDoesNotWedgeTeam(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("region-body panic should propagate")
		}
	}()
	Parallel(4, func(c *Context) {
		if c.ThreadNum() == 2 {
			panic("region boom")
		}
		// The other threads proceed to the implicit barrier; the
		// panicking thread must still join it or everyone hangs.
	})
}

func TestUndeferredTaskPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undeferred-task panic should propagate")
		}
	}()
	Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) { panic("inline boom") }, If(false))
		})
	})
}

func TestPanicDoesNotWedgeWaiters(t *testing.T) {
	// A parent taskwaiting on a panicking child must be released.
	defer func() { recover() }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		Parallel(2, func(c *Context) {
			c.Single(func(c *Context) {
				c.Task(func(c *Context) { panic("child boom") })
				c.Taskwait() // must not hang
			})
		})
	}()
	<-done
}
