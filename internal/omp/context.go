package omp

import "sync"

// Context is the per-thread, per-task execution context passed to
// parallel-region bodies and task bodies. It is the handle through
// which application code creates tasks and reaches the worksharing
// and synchronization constructs.
//
// A Context is only valid on the goroutine that received it and only
// for the dynamic extent of the body it was passed to.
type Context struct {
	w    *worker
	task *task
}

// ThreadNum returns the executing thread's index in the team,
// matching omp_get_thread_num().
func (c *Context) ThreadNum() int { return c.w.id }

// NumThreads returns the team size, matching omp_get_num_threads().
func (c *Context) NumThreads() int { return len(c.w.team.workers) }

// Depth returns the current task's depth in the task tree (implicit
// tasks are depth 0). BOTS application-level cut-offs are expressed
// in terms of this recursion depth.
func (c *Context) Depth() int { return int(c.task.depth) }

// Task creates an explicit task executing body. By default the task
// is tied and deferred; the Untied, If, Captured, Priority and
// dependence (In/Out/InOut) options modify creation. A deferred task
// is pushed on the creating worker's deque (or priority queue); an
// undeferred task (if(false) or runtime cut-off) executes immediately
// on the encountering thread with full task bookkeeping. A task with
// depend clauses is always deferred — its dependences must be able to
// hold it back — and is enqueued only once every predecessor sibling
// has finished.
func (c *Context) Task(body func(*Context), opts ...TaskOpt) {
	// The config is the worker's scratch, so the deps backing array
	// is reused from task to task. That is safe because spawnTask
	// consumes every field before it runs (or enqueues) the task — by
	// the time a nested Task can touch the scratch again, this
	// invocation is done with it.
	cfg := &c.w.taskCfg
	cfg.apply(opts)
	c.spawnTask(body, cfg)
}

// spawnTask is the shared creation path behind Task and Spawn. The
// task struct comes from the worker's recycling tiers (pool.go), and
// every field the previous life of the struct may have set is
// re-assigned or guaranteed reset here.
func (c *Context) spawnTask(body func(*Context), cfg *taskConfig) {
	w, parent, tm := c.w, c.task, c.w.team
	depth := parent.depth + 1
	hasDeps := len(cfg.deps) > 0
	deferred := hasDeps || (cfg.ifClause && tm.cutoff.Defer(tm, w, depth))

	t := w.newTask()
	t.body = body
	t.cell = cfg.cell
	t.parent = parent
	t.team = tm
	t.creator = w
	t.depth = depth
	t.untied = cfg.untied
	t.priority = cfg.priority
	t.group = parent.group
	t.hasDeps = hasDeps
	if tm.rec != nil {
		t.node = tm.rec.Spawn(parent.node, cfg.untied, !deferred, cfg.captured)
		if cfg.priority != 0 {
			t.node.SetPriority(cfg.priority)
		}
	}
	w.counts.capturedBytes += int64(cfg.captured)

	if !deferred {
		w.counts.tasksUndeferred++
		// Undeferred: execute immediately on this thread. The child
		// completes before Task returns, so it never contributes to
		// parent.pending (or to the taskgroup); its own children do
		// their own bookkeeping. A panic in the body is recorded and
		// re-raised when the parallel region returns.
		w.stats.liveCreated.Add(1)
		prev := w.cur
		w.cur = t
		func() {
			defer func() {
				if r := recover(); r != nil {
					tm.recordPanic(r)
				}
				t.finishInline(w)
			}()
			t.ctx = Context{w: w, task: t}
			t.run(&t.ctx)
		}()
		w.cur = prev
		return
	}
	// The enqueued task — and therefore its whole ancestor chain — may
	// be reached by stale thief reads: pin the parent out of the
	// immediate recycling tier (finishInline propagates the mark
	// upward; see pool.go).
	parent.visible = true
	w.counts.tasksCreated++
	parent.pending.Add(1)
	if t.group != nil {
		t.group.enter()
	}
	w.stats.liveCreated.Add(1)
	if hasDeps {
		// Hold the creation guard while edges are wired so a
		// concurrently finishing predecessor cannot release the task
		// before resolution completes.
		t.depsLeft.Store(1)
		if parent.depTab == nil {
			parent.depTab = newDepTab()
		}
		parent.depTab.resolve(t, cfg.deps, w)
		if t.depsLeft.Add(-1) > 0 {
			// Deferred on its dependences: counted everywhere
			// (pending, taskgroup, live count) but not enqueued; the
			// last predecessor to finish will enqueue it.
			w.stats.tasksDepDeferred.Add(1)
			return
		}
	}
	w.enqueue(t)
}

// finishInline is finish for undeferred tasks: they were never added
// to parent.pending, so only the live count is released. A
// never-shared task (no deferred descendant ever existed) is recycled
// immediately; a visible one takes the shared tiers like a deferred
// task (pool.go) and passes visibility to its parent — the parent is
// an ancestor of whatever deferred task made this one visible. The
// parent executes on this thread, suspended in the inline chain, so
// the visible write needs no synchronization.
func (t *task) finishInline(w *worker) {
	if t.depTab != nil {
		recycleDepTab(t.depTab)
		t.depTab = nil
	}
	w.stats.liveFinished.Add(1)
	if !t.visible {
		w.recycle(t)
		return
	}
	p := t.parent
	p.visible = true
	if t.strict() {
		w.retire(t)
		return
	}
	p.leaky.Store(true)
	w.bury(t)
}

// Taskwait suspends the current task until all child tasks it has
// generated since its start have completed. While waiting, the thread
// executes other ready tasks subject to the OpenMP task scheduling
// constraint: suspended in a tied task it may only run descendants of
// that task; suspended in an untied task it may run anything.
func (c *Context) Taskwait() {
	w, t := c.w, c.task
	w.counts.taskwaits++
	if t.node != nil {
		t.node.Taskwait()
	}
	constraint := t
	if t.untied {
		constraint = nil
	}
	for t.pending.Load() > 0 {
		if w.runOne(constraint) {
			continue
		}
		w.stats.taskwaitParks.Add(1)
		w.waitPark(t, constraint, func() bool { return t.pending.Load() == 0 })
	}
}

// Barrier synchronizes the team and drains all outstanding tasks, as
// an OpenMP barrier must. It may only be called from the region body
// (an implicit task), not from inside an explicit task.
func (c *Context) Barrier() {
	c.w.team.barrier(c.w)
}

// Single executes body on exactly one thread of the team (whichever
// arrives first), with an implicit task-draining barrier afterwards.
func (c *Context) Single(body func(*Context)) {
	c.SingleNowait(body)
	c.Barrier()
}

// SingleNowait is Single without the trailing barrier. It returns
// true on the thread that executed body.
func (c *Context) SingleNowait(body func(*Context)) bool {
	idx := c.w.singleIdx
	c.w.singleIdx++
	tm := c.w.team
	tm.wsMu.Lock()
	won := !tm.wsSingles[idx]
	if won {
		tm.wsSingles[idx] = true
	}
	tm.wsMu.Unlock()
	if won {
		body(c)
	}
	return won
}

// criticalRegistry implements named critical sections with global
// (process-wide) scope, as in OpenMP.
var criticalRegistry sync.Map // string -> *sync.Mutex

// Critical executes body under the process-wide lock for name. An
// empty name designates the single anonymous critical section.
func (c *Context) Critical(name string, body func()) {
	muAny, _ := criticalRegistry.LoadOrStore(name, &sync.Mutex{})
	mu := muAny.(*sync.Mutex)
	mu.Lock()
	body()
	mu.Unlock()
}

// AddWork reports that the current task performed n units of work
// (arithmetic operations, in the paper's Table II accounting). It
// feeds the runtime statistics and, when tracing is enabled, the
// task-graph recorder used by the performance-model simulator.
func (c *Context) AddWork(n int64) {
	c.w.counts.workUnits += n
	if c.task.node != nil {
		c.task.node.AddWork(n)
	}
}

// AddWrites reports application memory-write counts for the current
// task: private writes touch task-private storage, shared writes
// touch non-private data (Table II's "% of writes to non-private
// data" accounting; also the bandwidth-model input).
func (c *Context) AddWrites(private, shared int64) {
	c.w.counts.privateWrites += private
	c.w.counts.sharedWrites += shared
	if c.task.node != nil {
		c.task.node.AddWrites(private, shared)
	}
}
