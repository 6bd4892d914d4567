package omp

import (
	"fmt"
	"reflect"

	"bots/internal/obs"
)

// This file implements OpenMP 4.0-style task dependences: the In,
// Out and InOut task options declare the storage a task reads or
// writes, and the runtime derives predecessor/successor edges between
// sibling tasks from those declarations. A task with unfinished
// predecessors is *deferred on its dependences*: it is created (and
// counts toward taskwait/taskgroup/barrier completion) but is not
// enqueued until its last predecessor finishes.
//
// Scope follows the OpenMP rules: depend clauses order tasks that
// share a parent (the dependence domain is per generating task
// region). Each parent task owns a dependence hash table mapping
// storage addresses to the last writer and the reader set since that
// writer; the table is only ever touched by the thread currently
// executing the parent (task creation is a parent-side operation), so
// it needs no lock. The per-task successor lists *are* shared with
// finishing workers; they are lock-free — creation CAS-pushes nodes
// onto the predecessor's succHead and the completion path swaps in a
// closed sentinel, so neither side ever blocks the other (see
// releaseSuccessors).
//
// See DESIGN.md for the full protocol, including why a released task
// must wake parked waiters.

// depMode is the access mode of one dependence clause.
type depMode uint8

const (
	depIn depMode = iota
	depOut
	depInOut
)

// dep is one resolved (address, mode) pair of a task's depend clauses.
type dep struct {
	addr uintptr
	mode depMode
}

// depEscape is never set. Storing the operand behind it makes escape
// analysis move every depend-clause operand to the heap, which the
// nominal scheme needs: the address is a hash key that must name the
// same object for the parent's whole lifetime, and a stack address
// does not survive the goroutine's stack being moved. (Option values
// no longer capture their operands in a heap closure, so nothing else
// forces this.)
var (
	depEscape     bool
	depEscapeSink any
)

// depAddr extracts the dependence address of one depend-clause
// operand: the pointed-to object for pointers, the backing array for
// slices, or a raw uintptr address. Dependences are purely nominal —
// the runtime never dereferences the address, it is only a hash key —
// so any stable address that names the data works.
func depAddr(obj any) uintptr {
	if depEscape {
		depEscapeSink = obj
	}
	switch v := obj.(type) {
	case uintptr:
		return v
	}
	rv := reflect.ValueOf(obj)
	switch rv.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func:
		return rv.Pointer()
	}
	panic(fmt.Sprintf("omp: depend clause operand must be a pointer, slice or uintptr address, got %T", obj))
}

// In declares input dependences: the task reads the listed storage
// and must wait for the previous sibling that declared it as an
// output. Operands may be pointers, slices (the backing array is the
// address), or raw uintptr addresses.
func In(objs ...any) TaskOpt { return TaskOpt{kind: optIn, objs: objs} }

// Out declares output dependences: the task writes the listed storage
// and must wait for the previous writer and for every reader since.
func Out(objs ...any) TaskOpt { return TaskOpt{kind: optOut, objs: objs} }

// InOut declares read-write dependences; the ordering rules are the
// same as Out (wait for last writer and all readers since).
func InOut(objs ...any) TaskOpt { return TaskOpt{kind: optInOut, objs: objs} }

// Priority sets the task's scheduling priority (OpenMP 4.5 priority
// clause). Higher values are picked first by both the owning worker
// and thieves; the default is 0, and negative values are clamped to
// it (as in OpenMP, where priority is non-negative). Priority is a
// scheduling hint, not a correctness guarantee.
func Priority(p int) TaskOpt {
	if p < 0 {
		p = 0
	}
	return TaskOpt{kind: optPriority, n: int64(p)}
}

// depEntry is the dependence-table record for one address: the last
// sibling task that declared an output dependence on it, and every
// sibling that declared an input dependence since that writer.
type depEntry struct {
	lastOut *task
	readers []*task
}

// depTracker is the per-parent dependence hash table. It is created
// lazily on the first dependent child (recycled from depTabPool; see
// pool.go) and accessed only by the thread executing the parent task.
// free holds cleared entry structs from the tracker's previous lives,
// so steady-state dependence resolution allocates neither tables nor
// entries.
type depTracker struct {
	entries map[uintptr]*depEntry
	free    []*depEntry
}

func (tr *depTracker) entry(addr uintptr) *depEntry {
	e := tr.entries[addr]
	if e == nil {
		if n := len(tr.free) - 1; n >= 0 {
			e = tr.free[n]
			tr.free[n] = nil
			tr.free = tr.free[:n]
		} else {
			e = &depEntry{}
		}
		tr.entries[addr] = e
	}
	return e
}

// resolve registers t's dependences against the parent's table,
// wiring t as a successor of each unfinished predecessor and
// recording the dependence edges on the trace node (when tracing).
// It returns the number of dependence edges found (finished
// predecessors included). On return the table reflects t's own
// accesses for subsequent siblings.
//
// t.depsLeft must hold the creation guard (1) before resolve is
// called, so concurrent predecessor completions cannot release t
// while edges are still being added.
func (tr *depTracker) resolve(t *task, deps []dep, w *worker) int64 {
	edges := int64(0)
	link := func(p *task) {
		if p == nil || p == t {
			return
		}
		edges++
		if t.node != nil && p.node != nil {
			t.node.DependsOn(p.node)
		}
		// Lock-free successor attach: count the predecessor first, then
		// CAS-push a node onto p's successor list. A predecessor that
		// completes concurrently swaps in the closed sentinel; losing to
		// it means p already finished, so the count is taken back (the
		// creation guard keeps depsLeft above zero, so the decrement can
		// never release t mid-resolution).
		t.depsLeft.Add(1)
		n := w.newSuccNode(t)
		for {
			head := p.succHead.Load()
			if head == succListClosed {
				t.depsLeft.Add(-1)
				w.freeSuccNode(n)
				return
			}
			n.next = head
			if p.succHead.CompareAndSwap(head, n) {
				return
			}
		}
	}
	for _, d := range deps {
		e := tr.entry(d.addr)
		switch d.mode {
		case depIn:
			link(e.lastOut)
			e.readers = append(e.readers, t)
		case depOut, depInOut:
			if len(e.readers) > 0 {
				for _, r := range e.readers {
					link(r)
				}
			} else {
				link(e.lastOut)
			}
			e.lastOut = t
			e.readers = nil
		}
	}
	w.stats.depEdges.Add(edges)
	return edges
}

// succNode is one entry of a task's lock-free successor list. Nodes
// are recycled through per-worker free lists (newSuccNode), so
// steady-state dependence resolution allocates no list storage.
type succNode struct {
	t    *task
	next *succNode
}

// succListClosed is the closed sentinel: a task whose succHead holds
// it has finished, and no successor may attach anymore. It is only
// ever compared against, never dereferenced.
var succListClosed = &succNode{}

// releaseSuccessors performs the completion side of the dependence
// protocol: close t's successor list with one sentinel swap (so no
// new successor can attach) and hand every successor whose last
// predecessor was t to worker w's queues. The swap is the only
// synchronization between completion and concurrent task creation —
// neither side takes a lock (the old protocol serialized both through
// a per-task mutex).
func (t *task) releaseSuccessors(w *worker) {
	if !t.hasDeps {
		// Only tasks that declared depend clauses can appear in the
		// parent's dependence table, so only they can ever acquire
		// successors; the common fire-and-forget path stays untouched.
		return
	}
	head := t.succHead.Swap(succListClosed)
	for n := head; n != nil && n != succListClosed; {
		s, next := n.t, n.next
		w.freeSuccNode(n)
		if s.depsLeft.Add(-1) == 0 {
			w.stats.depReleases.Add(1)
			w.enqueue(s)
		}
		n = next
	}
}

// enqueue hands a ready task to the team's scheduler on behalf of w,
// then rings the team doorbell so a worker parked at a barrier can
// come take it, and wakes the condition waiters, who may be the only
// workers allowed to run it. That second wake is what keeps
// dependence release deadlock-free: unlike a freshly created task
// (which its creator can always reach at the bottom of its own deque
// before parking), a released task appears in an arbitrary worker's
// queue while the tasks waiting on it — a taskwait in its parent, a
// Taskgroup drain, a Future.Wait on its result — may already be
// parked. Owner-side only (w must be the calling worker).
func (w *worker) enqueue(t *task) {
	t.mustBeLive()
	w.team.sched.Push(w.id, t)
	if ev := w.events; ev != nil {
		ev.Record(obs.EvSpawn, int64(t.depth))
	}
	w.team.ring()
	w.team.wakeWaiters()
}

// queued returns the worker's ready backlog as the scheduler reports
// it — what queue-depth-based cut-off policies must see.
func (w *worker) queued() int64 {
	return w.team.sched.Queued(w.id)
}
