package omp

import (
	"sync/atomic"

	"bots/internal/obs"
	"bots/internal/trace"
)

// task is the runtime representation of an OpenMP explicit task (or
// of a thread's implicit task, for depth 0).
type task struct {
	body    func(*Context)
	cell    cellBody // non-nil for Spawn and TaskFunc tasks; body is nil then
	parent  *task
	team    *Team
	creator *worker // worker that created (queued) the task; nil for implicit tasks

	depth    int32
	untied   bool
	priority int32

	// visible marks tasks that have, or had, a deferred descendant:
	// a queued task's ancestors are reachable from other threads
	// (stale thief reads walk parent chains), so a visible undeferred
	// task is recycled through the grace period instead of
	// immediately (pool.go). Written only by the thread executing the
	// task: at each deferred spawn, and by finishInline one level up.
	visible bool

	// leaky marks tasks with a non-strict descendant subtree: some
	// child finished while its own children were still outstanding,
	// so a live task may still walk through this one and it must not
	// be reused before quiescence. Set by the finishing child (any
	// thread) before it decrements pending; read by this task's
	// finish, after it observed pending == 0 (pool.go has the
	// argument).
	leaky atomic.Bool

	// ctx is the task's reusable execution context: execute and the
	// undeferred path hand &ctx to the body, saving a per-execution
	// Context allocation (the pointer escapes through the indirect
	// body call, so a literal &Context{} would always heap-allocate).
	ctx Context

	// pending counts outstanding (created, not yet finished) child
	// tasks; taskwait blocks until it reaches zero. A parked taskwait
	// blocks on its worker's wake channel (see worker.waitPark) — the
	// task itself carries no park state.
	pending atomic.Int64

	// group is the innermost enclosing taskgroup, inherited by
	// descendants; nil outside any taskgroup.
	group *taskgroup

	// node is the trace-recording node, nil when tracing is off.
	node *trace.Node

	// Dependence state (see depend.go). hasDeps marks tasks that
	// declared depend clauses — only they can appear in the parent's
	// dependence table and acquire successors. depsLeft counts
	// unfinished predecessors plus a creation guard; the task is
	// enqueued when it reaches zero. succHead is the lock-free
	// successor list: creation CAS-pushes successor nodes, and the
	// completion path swaps in a closed sentinel so no successor can
	// attach to a finished predecessor (see releaseSuccessors).
	hasDeps  bool
	depsLeft atomic.Int32
	succHead atomic.Pointer[succNode]

	// depTab is the dependence table for this task's *children*,
	// lazily created on the first dependent child; touched only by
	// the thread executing this task.
	depTab *depTracker
}

// cellBody is the type-erased face of a recycled cell that carries a
// task's work: a *Future[T] (future.go) or a TaskFunc's cell
// (taskfunc.go). The task struct cannot be generic, so Spawn and
// TaskFunc.Task hand their cell over as this interface and the
// execution paths call run in place of a body closure. The cell holds
// both the function and its data, so neither path allocates a closure
// per task, and both cells recycle.
type cellBody interface {
	runCell(*Context)
}

// run invokes the task's work: the cell when the task was created by
// Spawn or a TaskFunc, the plain body otherwise.
func (t *task) run(c *Context) {
	if t.cell != nil {
		t.cell.runCell(c)
		return
	}
	t.body(c)
}

// TaskOpt configures a single task creation. It is a small value —
// a kind, one scalar, and the operand list of a depend clause — not a
// closure: building one allocates nothing, and a variadic option list
// stays on the caller's stack (Context.Task copies what it needs into
// the worker's scratch config and keeps no reference). The zero value
// is the empty option and configures nothing, so call sites can pass
// a conditional clause without building a slice.
type TaskOpt struct {
	kind optKind
	n    int64 // If: 0 or 1; Captured: bytes; Priority: level
	objs []any // In/Out/InOut operands
}

type optKind uint8

const (
	optNone optKind = iota
	optUntied
	optIf
	optCaptured
	optPriority
	optIn
	optOut
	optInOut
)

type taskConfig struct {
	untied   bool
	ifClause bool
	captured int
	priority int32
	deps     []dep
	cell     cellBody // set by Spawn and TaskFunc.Task, not by any TaskOpt
}

// reset readies a (per-worker scratch) config for the next task
// directive, keeping the deps backing array.
func (cfg *taskConfig) reset() {
	cfg.untied = false
	cfg.ifClause = true
	cfg.captured = 0
	cfg.priority = 0
	cfg.deps = cfg.deps[:0]
	cfg.cell = nil
}

// apply folds the option list of one task directive into cfg.
func (cfg *taskConfig) apply(opts []TaskOpt) {
	cfg.reset()
	for i := range opts {
		o := &opts[i]
		switch o.kind {
		case optUntied:
			cfg.untied = true
		case optIf:
			cfg.ifClause = o.n != 0
		case optCaptured:
			cfg.captured = int(o.n)
		case optPriority:
			cfg.priority = int32(o.n)
		case optIn, optOut, optInOut:
			mode := depMode(o.kind - optIn) // same order as depIn, depOut, depInOut
			for _, obj := range o.objs {
				cfg.deps = append(cfg.deps, dep{addr: depAddr(obj), mode: mode})
			}
		}
	}
}

// Untied marks the task untied: at scheduling points, a thread
// suspended in this task may execute or steal any ready task, not
// only descendants. (Mid-execution migration to another thread is not
// modeled; see DESIGN.md.)
func Untied() TaskOpt { return TaskOpt{kind: optUntied} }

// If attaches an if clause to the task directive: when cond is false
// the task is undeferred and executes immediately on the encountering
// thread, but the runtime still performs task bookkeeping — exactly
// the distinction the BOTS paper draws between the if-clause cut-off
// (its Figure 1) and the manual cut-off (its Figure 2).
func If(cond bool) TaskOpt {
	if cond {
		return TaskOpt{kind: optIf, n: 1}
	}
	return TaskOpt{kind: optIf}
}

// Captured declares the number of bytes of captured environment
// (firstprivate data) copied into the task. It feeds the Table II
// accounting and the creation-cost model; it has no semantic effect.
func Captured(bytes int) TaskOpt { return TaskOpt{kind: optCaptured, n: int64(bytes)} }

// isDescendantOf reports whether t is a descendant of anc. Thieves
// call it on tasks read from possibly stale queue slots; pool.go
// explains why every task on the walk is still intact, and the
// poison check turns a violation into a panic.
func (t *task) isDescendantOf(anc *task) bool {
	t.mustBeLive()
	for p := t.parent; p != nil; p = p.parent {
		if p == anc {
			return true
		}
		if p.depth <= anc.depth {
			p.mustBeLive() // poison is below every real depth
			return false
		}
	}
	return false
}

// raidable reports whether a batch steal may carry t along with other
// tasks: only when t's parent is untied. A nil parent (the direct
// scheduler harnesses) counts as untied. Call it only on a task the
// caller has claimed; takeFrom says why the parent is then safe to read.
func (t *task) raidable() bool {
	return t.parent == nil || t.parent.untied
}

// mustBeLive panics if t has been reset for reuse: the schedulers and
// the constraint walk call it on every task they are handed.
func (t *task) mustBeLive() {
	if t.depth == poisonDepth {
		panic("omp: reclaimed task still reachable")
	}
}

// finish performs completion bookkeeping for t on worker w: release
// dependent successor tasks, recycle the dependence table of t's
// children, count the task finished on w (the team's live count), and
// decrement the enclosing taskgroup's live count and the parent's
// pending count, waking the worker parked in the parent's taskwait if
// this was the last outstanding child. The task itself was shared (it
// was enqueued), so it is retired for reuse after a grace period when
// its subtree was fully strict, and buried until quiescence otherwise
// (pool.go).
//
// finish and finishInline are the only two places a task is counted
// finished, and every task goes through exactly one of them exactly
// once — deferred tasks through execute's deferred finish (which runs
// once even when the body panics), undeferred tasks through the Task
// undeferred path's deferred finishInline. TestLiveTasksReturnToZero
// pins this invariant; recycling depends on it (a double finish would
// also double-recycle a task).
func (t *task) finish(w *worker) {
	tm := t.team
	if ev := w.events; ev != nil {
		ev.Record(obs.EvFinish, int64(t.depth))
	}
	t.releaseSuccessors(w)
	if t.depTab != nil {
		recycleDepTab(t.depTab)
		t.depTab = nil
	}
	// The finished count rises before the completion signals below:
	// anyone released by this task's completion (a taskwait in the
	// parent, a persistent-team SubmitWait) must observe the team
	// already drained of this task. Unreleased dependent successors were
	// counted live at their creation, so the early count cannot let a
	// barrier (or a persistent team's quiescence check) pass while work
	// remains.
	w.stats.liveFinished.Add(1)
	strict := t.strict()
	if p := t.parent; p != nil {
		if !strict {
			p.leaky.Store(true) // before the decrement; see the field
		}
		// Once pending reads zero the parent may finish and be retired,
		// so it is not touched again: the worker to wake is the one
		// that executes the parent, which is the one that created t
		// (tasks never migrate once started), and only the pointer is
		// compared.
		if p.pending.Add(-1) == 0 && t.creator.waitTask.Load() == p {
			t.creator.wake()
		}
	}
	if g := t.group; g != nil {
		// Publish w's plain counters before leaving: the leave that
		// empties a submission's group completes it, and Wait's stats
		// delta must already see every member's counts (workerStats).
		w.publishCounts()
		if g.leave() {
			if s := g.sub; s != nil {
				// The group is a persistent-team submission and this was
				// its last live task: complete the submission (signal its
				// waiter or run its callback; see persistent.go).
				s.complete()
			}
			tm.wakeWaiters() // a Taskgroup drain may be parked on the group
		}
	}
	if strict && !t.hasDeps {
		w.retire(t)
	} else {
		w.bury(t)
	}
}

// strict reports, at t's finish, whether t's whole subtree finished
// before it: no child outstanding and none that finished non-strict.
func (t *task) strict() bool {
	return t.pending.Load() == 0 && !t.leaky.Load()
}
