package omp

import "sync/atomic"

// This file holds constructs beyond the OpenMP 3.0 core that the BOTS
// paper's discussion points toward: taskyield and taskgroup (added in
// OpenMP 3.1/4.0 and natural follow-ons for task suites), the
// sections worksharing construct (the pre-3.0 way to express task-like
// parallelism, which the paper's introduction contrasts tasks
// against), and a reduction helper.

// Taskyield is an explicit scheduling point (OpenMP 3.1): the current
// task allows the thread to execute one other ready task, subject to
// the same scheduling constraint as taskwait. It returns true if a
// task was executed.
func (c *Context) Taskyield() bool {
	constraint := c.task
	if c.task.untied {
		constraint = nil
	}
	return c.w.runOne(constraint)
}

// Taskgroup executes body and then waits for *all* descendant tasks
// created inside it (OpenMP 4.0 taskgroup), not only direct children
// as taskwait does. It is implemented with a dedicated completion
// counter threaded through the task tree.
func (c *Context) Taskgroup(body func(*Context)) {
	tg := &taskgroup{}
	prev := c.task.group
	c.task.group = tg
	body(c)
	c.task.group = prev
	// Drain: execute tasks while the group has live members. A park
	// is a condition wait (worker.waitPark): the descendant completion
	// that empties the group wakes it (see task.finish), as does every
	// enqueue — the parked drainer may be the only thread able to
	// execute a group member that just became runnable.
	constraint := c.task
	if c.task.untied {
		constraint = nil
	}
	for tg.live.Load() > 0 {
		if c.w.runOne(constraint) {
			continue
		}
		c.w.waitPark(waitAny, constraint, func() bool { return tg.live.Load() == 0 })
	}
}

// taskgroup tracks the live descendant count of one taskgroup region.
// It is a bare counter: parking and waking go through the workers'
// wake channels, so the group needs no mutex or channel of its own.
type taskgroup struct {
	live atomic.Int64
	// sub, when non-nil, is the persistent-team submission this group
	// belongs to: the whole submitted subtree is threaded through the
	// group, and the submission completes when the group empties (see
	// persistent.go). nil for ordinary Taskgroup constructs.
	sub *Submission
}

func (tg *taskgroup) enter() { tg.live.Add(1) }

// leave decrements the live count and reports whether the group just
// emptied — the caller (task.finish) wakes the condition waiters.
func (tg *taskgroup) leave() bool {
	return tg.live.Add(-1) == 0
}

// Sections executes each function on some thread of the team, at most
// one thread per section (the OpenMP sections worksharing construct),
// with an implicit barrier at the end. Every thread of the team must
// encounter the construct.
func (c *Context) Sections(sections ...func(*Context)) {
	idx := c.w.loopIdx
	c.w.loopIdx++
	st := c.w.team.loopStateFor(idx, 0)
	for {
		i := int(st.next.Add(1)) - 1
		if i >= len(sections) {
			break
		}
		sections[i](c)
	}
	c.Barrier()
}

// Reduce folds the per-thread values of tp into a single result using
// op, under the construct's critical section — the NQueens reduction
// pattern (§III-B of the paper) packaged as a helper. It must be
// called by every thread of the team; the reduced value is returned
// on all of them after an implicit barrier. The first thread to
// arrive seeds *out with zero (the operation's identity), so the
// caller need not pre-initialize it and any stale value in *out is
// discarded, matching how an OpenMP reduction privatizes and seeds
// its variable.
func Reduce[T any](c *Context, tp *ThreadPrivate[T], zero T, op func(T, T) T, out *T) {
	idx := c.w.reduceIdx
	c.w.reduceIdx++
	tm := c.w.team
	c.Critical("omp.reduce", func() {
		tm.wsMu.Lock()
		first := !tm.wsReduces[idx]
		if first {
			tm.wsReduces[idx] = true
		}
		tm.wsMu.Unlock()
		if first {
			*out = zero
		}
		*out = op(*out, *tp.Get(c))
	})
	c.Barrier()
}
