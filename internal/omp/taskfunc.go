package omp

// TaskFunc creates tasks whose body is one fixed function applied to a
// small argument: the firstprivate environment an OpenMP runtime copies
// into the task descriptor. Context.Task needs a body closure per task,
// and a closure that captures anything is a heap object; a TaskFunc
// copies the argument into a recycled cell instead, so a task created
// through it allocates nothing in steady state.
//
// A cell comes from the spawning thread's free list and, once its body
// has returned, goes back onto the list of the thread that ran it. The
// lists are threadprivate, so neither end takes a lock; a cell crosses
// threads only inside its task, whose enqueue and steal already order
// the accesses. A body that panics drops its cell to the garbage
// collector: children it left outstanding may still write through
// pointers into it.
type TaskFunc[A any] struct {
	fn   func(*Context, *A)
	free ThreadPrivate[[]*taskCell[A]]
}

// taskCell is one task's copy of its argument. It rides in the task's
// cell slot (task.go), so the task struct needs no body closure.
type taskCell[A any] struct {
	tf  *TaskFunc[A]
	arg A
}

// maxFreeCells bounds each thread's free list. A thread that mostly
// runs tasks others created collects their cells; beyond the bound it
// leaves them to the garbage collector rather than hoard them.
const maxFreeCells = 1024

// NewTaskFunc returns a TaskFunc running fn for teams of up to threads
// threads. Like ThreadPrivate, it indexes its lists by thread number,
// so it serves one team at a time. fn receives a pointer to the task's
// own copy of the argument; the pointer, and anything taken from it, is
// valid until fn returns, so children may write results into it as
// long as fn waits for them (Taskwait) before returning.
func NewTaskFunc[A any](threads int, fn func(*Context, *A)) *TaskFunc[A] {
	return &TaskFunc[A]{fn: fn, free: *NewThreadPrivate[[]*taskCell[A]](threads)}
}

// Task creates a task running the TaskFunc's function on a copy of
// arg, with the same options and semantics as Context.Task. Changes
// the caller makes to its own variables after Task returns are not
// seen by the task.
func (tf *TaskFunc[A]) Task(c *Context, arg A, opts ...TaskOpt) {
	l := tf.free.Get(c)
	var cell *taskCell[A]
	if n := len(*l) - 1; n >= 0 {
		cell = (*l)[n]
		*l = (*l)[:n]
	} else {
		cell = &taskCell[A]{tf: tf}
	}
	cell.arg = arg
	cfg := &c.w.taskCfg // see Context.Task for why the scratch is safe
	cfg.apply(opts)
	cfg.cell = cell
	c.spawnTask(nil, cfg)
}

// runCell runs the body on the cell's argument, then zeroes the cell
// and pushes it onto the executing thread's free list. A panic skips
// both, which drops the cell.
func (cell *taskCell[A]) runCell(c *Context) {
	tf := cell.tf
	tf.fn(c, &cell.arg)
	var zero A
	cell.arg = zero
	if l := tf.free.Get(c); len(*l) < maxFreeCells {
		*l = append(*l, cell)
	}
}
