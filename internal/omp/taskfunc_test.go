package omp

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestTaskFuncFirstprivate: the task sees the argument as it was at the
// spawn, not the caller's later changes, and a cell is reused only
// after its body has returned — a body that waits on children still
// finds its own argument intact after the taskwait, and no two running
// bodies ever share an argument pointer.
func TestTaskFuncFirstprivate(t *testing.T) {
	type arg struct {
		i   int
		buf [8]int
	}
	const n = 200
	var seen [n]int
	tf := NewTaskFunc(1, func(c *Context, a *arg) {
		for _, v := range a.buf {
			if v != a.i {
				t.Errorf("task %d sees buf %v: a change after the spawn leaked in", a.i, a.buf)
				break
			}
		}
		seen[a.i]++
	})
	Parallel(1, func(c *Context) {
		var a arg
		for i := 0; i < n; i++ {
			a.i = i
			for k := range a.buf {
				a.buf[k] = i
			}
			tf.Task(c, a)
			for k := range a.buf {
				a.buf[k] = -1
			}
		}
		c.Taskwait() // one thread: every body runs after every change
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, s)
		}
	}

	type node struct{ n, id int }
	var (
		mu      sync.Mutex
		running = map[*node]bool{}
		ptrs    = map[*node]bool{}
		tasks   atomic.Int64
		nextID  atomic.Int64
	)
	var tree *TaskFunc[node]
	tree = NewTaskFunc(4, func(c *Context, a *node) {
		tasks.Add(1)
		mu.Lock()
		if running[a] {
			t.Errorf("cell %p handed to a second task while its body runs", a)
		}
		running[a], ptrs[a] = true, true
		mu.Unlock()
		want := *a
		if a.n >= 2 {
			tree.Task(c, node{a.n - 1, int(nextID.Add(1))})
			tree.Task(c, node{a.n - 2, int(nextID.Add(1))})
			c.Taskwait()
		}
		if *a != want {
			t.Errorf("argument changed under its body: %+v, want %+v", *a, want)
		}
		mu.Lock()
		delete(running, a)
		mu.Unlock()
	})
	for _, sched := range Schedulers() {
		Parallel(4, func(c *Context) {
			c.Single(func(c *Context) { tree.Task(c, node{n: 14}) })
		}, WithScheduler(sched))
	}
	if len(ptrs) >= int(tasks.Load())/10 {
		t.Errorf("%d tasks used %d distinct cells: cells are not being reused", tasks.Load(), len(ptrs))
	}
}

// TestTaskFuncCrossThread: under every scheduler, on four workers,
// cells spawned on one thread are run, and so freed, on another, and
// every task runs exactly once. Freed cells are zeroed.
func TestTaskFuncCrossThread(t *testing.T) {
	type arg struct {
		id, spawner int
		n           int
	}
	const fibN = 16 // 3193 tasks
	for _, sched := range Schedulers() {
		var (
			runs         [4096]atomic.Int32
			ids, crossed atomic.Int64
		)
		var tf *TaskFunc[arg]
		tf = NewTaskFunc(4, func(c *Context, a *arg) {
			runs[a.id].Add(1)
			if a.spawner != c.ThreadNum() {
				crossed.Add(1)
			}
			if a.n >= 2 {
				for _, m := range []int{a.n - 1, a.n - 2} {
					tf.Task(c, arg{id: int(ids.Add(1)), spawner: c.ThreadNum(), n: m}, Untied())
				}
				c.Taskwait()
			}
		})
		// Which thread runs a task depends on timing; a region on a
		// busy host can run everything where it was spawned.
		for try := 0; try < 20 && crossed.Load() == 0; try++ {
			ids.Store(0)
			for i := range runs {
				runs[i].Store(0)
			}
			Parallel(4, func(c *Context) {
				c.Single(func(c *Context) { tf.Task(c, arg{spawner: c.ThreadNum(), n: fibN}) })
			}, WithScheduler(sched))
		}
		n := int(ids.Load()) + 1
		for id := 0; id < n; id++ {
			if got := runs[id].Load(); got != 1 {
				t.Fatalf("%s: task %d ran %d times, want 1", sched, id, got)
			}
		}
		if crossed.Load() == 0 {
			t.Errorf("%s: no task of %d ran on a thread other than its spawner", sched, n)
		}
		for i := 0; i < tf.free.Len(); i++ {
			for _, cell := range *tf.free.Slot(i) {
				if cell.arg != (arg{}) {
					t.Fatalf("%s: a freed cell still holds %+v", sched, cell.arg)
				}
			}
		}
	}
}

// TestTaskFuncPanic: a panicking body's panic is re-raised by the
// region, its cell is not put back on a free list (a child could still
// write into it), and the same TaskFunc works in the next region.
func TestTaskFuncPanic(t *testing.T) {
	var dropped *int
	var sum atomic.Int64
	tf := NewTaskFunc(2, func(c *Context, v *int) {
		if *v < 0 {
			dropped = v
			panic("cell boom")
		}
		sum.Add(int64(*v))
	})
	func() {
		defer func() {
			if r := recover(); r != "cell boom" {
				t.Fatalf("region re-raised %v, want the body's panic", r)
			}
		}()
		Parallel(2, func(c *Context) {
			c.Single(func(c *Context) {
				for i := 0; i < 10; i++ {
					tf.Task(c, i)
				}
				tf.Task(c, -1)
				c.Taskwait()
			})
		})
	}()
	for i := 0; i < tf.free.Len(); i++ {
		for _, cell := range *tf.free.Slot(i) {
			if &cell.arg == dropped {
				t.Fatal("the panicking body's cell went back on a free list")
			}
		}
	}
	sum.Store(0)
	Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			for i := 1; i <= 100; i++ {
				tf.Task(c, i)
			}
			tf.Task(c, 0, If(false))
		})
	})
	if got := sum.Load(); got != 5050 {
		t.Fatalf("region after the panic summed %d, want 5050", got)
	}
}
