package omp

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Future is the typed result of a task created with Spawn: a
// single-assignment cell the producing task fills and any task of the
// region can Wait on. It is the structured alternative to writing
// through a captured pointer and calling Taskwait.
//
// A blocked Wait parks on its worker's wake channel (the condition
// wait taskwait and Taskgroup use; see worker.waitPark), so a Future
// carries no park state of its own — just the value and a done flag.
//
// Lifetime: Future cells are pool-recycled (see futPoolFor), so a
// Future that was Wait()ed must not be used again after the region —
// or, on a persistent team, the submission DAG — that created it has
// completed. A Future that was never Wait()ed is exempt: it stays
// valid indefinitely (a caller may retain it across regions, poll
// Done, and Wait on it from a later region), at the cost of one cell
// left to the garbage collector.
type Future[T any] struct {
	// fn is the producing function, carried in the Future itself so
	// the spawn path needs no per-spawn closure: the task stores the
	// Future in its fut slot and the shared runFuture body below
	// recovers fn through the interface. Cleared after the run so the
	// captured environment does not outlive the task just because the
	// caller holds the Future for its value.
	fn   func(*Context) T
	val  T
	done atomic.Bool
	// consumed marks cells whose value was delivered through Wait.
	// Only consumed cells are recycled at quiescence: an unconsumed
	// cell may still be retained by application code (the documented
	// keep-a-handle-across-regions pattern), so it is dropped to the
	// GC instead. Set by every Wait; read only by the region-end /
	// submission-quiescence recycler, after all waiters joined.
	consumed atomic.Bool
}

// Done reports whether the producing task has completed.
func (f *Future[T]) Done() bool { return f.done.Load() }

// runFuture is the task body of every Spawn-created task; it
// implements the unexported futureRunner interface the task struct's
// fut slot is typed as (see task.go). Executing through the interface
// instead of a wrapping closure is what keeps Spawn at one allocation:
// the Future struct itself is the only per-spawn heap object.
func (f *Future[T]) runFuture(tc *Context) {
	defer func() {
		f.fn = nil
		f.done.Store(true)
		// Wake after publishing done: a Wait that registered and
		// re-checked before this store is woken; one that re-checks
		// after sees done and never parks (worker.waitPark has the
		// full argument).
		tc.w.team.wakeWaiters()
	}()
	f.val = f.fn(tc)
}

// futCell is the type-erased recycling face of *Future[T]: the worker
// struct cannot hold typed cells, so the grave list stores this
// interface and tryRecycle dispatches back into the generic method
// that knows the cell's pool.
type futCell interface {
	futureRunner
	tryRecycle()
}

// futPools maps reflect.Type of Future[T] to the *sync.Pool recycling
// cells of that instantiation. Go has no generic package-level
// variables, so the per-type pool is materialized on first use; the
// steady-state lookup is one lock-free read-map hit with no
// allocation, which is what keeps Spawn at zero allocations.
var futPools sync.Map // reflect.Type -> *sync.Pool

func futPoolFor[T any]() *sync.Pool {
	key := reflect.TypeFor[Future[T]]()
	if p, ok := futPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := futPools.LoadOrStore(key, &sync.Pool{New: func() any { return new(Future[T]) }})
	return p.(*sync.Pool)
}

// tryRecycle resets the cell and returns it to its typed pool — but
// only when it was both produced and consumed in its region. An
// unconsumed cell may still be held by application code (retained
// across regions), and an unproduced one belongs to a task that never
// ran (panic path); both are dropped to the GC with fields intact.
// Called only at region end / submission quiescence, after every
// worker and waiter of the region has joined (pool.go's grave
// discipline), so no concurrent reader of the cell can exist.
func (f *Future[T]) tryRecycle() {
	if !f.consumed.Load() || !f.done.Load() {
		return
	}
	var zero T
	f.fn = nil
	f.val = zero
	f.done.Store(false)
	f.consumed.Store(false)
	futPoolFor[T]().Put(f)
}

// Spawn creates a task computing fn and returns a Future for its
// result. All task options apply: dependences (In/Out/InOut),
// Priority, Untied, If, Final, Captured. If the producing task
// panics, the Future completes with the zero value and the panic is
// re-raised when the parallel region returns, as for any task.
//
// Spawn allocates nothing in steady state: the cell comes from a
// per-type pool and is buried on the creating worker's future grave,
// to be recycled at region (or submission) quiescence if Wait
// consumed it — the same two-tier discipline task structs use. See
// the Future type's lifetime note for the one rule this imposes.
func Spawn[T any](c *Context, fn func(*Context) T, opts ...TaskOpt) *Future[T] {
	f := futPoolFor[T]().Get().(*Future[T])
	f.fn = fn
	c.w.buryFuture(f)
	cfg := &c.w.taskCfg // see Context.Task for why the scratch is safe
	cfg.apply(opts)
	cfg.fut = f
	c.spawnTask(nil, cfg)
	return f
}

// Wait blocks until the producing task has completed and returns its
// value. Like taskwait, waiting is a task scheduling point: the
// calling thread executes other ready tasks while blocked, subject to
// the OpenMP task scheduling constraint (suspended in a tied task it
// may only run descendants of that task). Wait may be called from any
// task of the region, any number of times, on any number of threads —
// completion wakes every parked waiter.
// Wait consumes the Future: once any Wait has returned, the cell is
// recycled when its creating region (or submission DAG) reaches
// quiescence and must not be touched after that point (see the type's
// lifetime note).
//
// When tracing, a blocking Wait is recorded as a taskwait event on
// the waiting task: the trace format has no single-task join, so the
// replayed constraint is a conservative join on all children the
// waiter has spawned so far (exact for the common wait-for-all
// pattern, pessimistic when unrelated children are still running).
func (f *Future[T]) Wait(c *Context) T {
	// Mark the cell consumed before anything else: the recycler runs
	// only at quiescence (after this Wait has returned and its region
	// joined), so the store can never race a reset. Done() deliberately
	// does not consume — polling keeps a cell retainable.
	f.consumed.Store(true)
	if f.done.Load() {
		return f.val
	}
	w, cur := c.w, c.task
	w.stats.futureWaits.Add(1)
	if cur.node != nil {
		cur.node.Taskwait()
	}
	constraint := cur
	if cur.untied {
		constraint = nil
	}
	for !f.done.Load() {
		if w.runOne(constraint) {
			continue
		}
		w.stats.taskwaitParks.Add(1)
		w.waitPark(waitAny, constraint, f.done.Load)
	}
	return f.val
}
