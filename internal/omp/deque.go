package omp

import "sync/atomic"

// deque is a lock-free Chase–Lev work-stealing deque of *task.
//
// The owning worker pushes and pops at the bottom (LIFO); thieves
// steal from the top (FIFO). The implementation follows Chase & Lev,
// "Dynamic Circular Work-Stealing Deque" (SPAA 2005), using Go's
// sequentially-consistent atomics, with a growable circular buffer.
// Only the owner may call pushBottom/popBottom; steal and stealIf may
// be called from any goroutine.
type deque struct {
	// top is CASed by every thief; bottom and ring are written by the
	// owner on every push/pop. On one cache line, every thief CAS
	// would invalidate the owner's line and stall the owner's next
	// push (and vice versa) even though they touch different words —
	// the classic Chase–Lev false-sharing hazard. The pad keeps the
	// thief-side and owner-side words on separate lines; the layout is
	// pinned by TestPaddedLayout, and DESIGN §12.1 records what the
	// shared line measured.
	top    atomic.Int64 // next index to steal from
	_      [56]byte
	bottom atomic.Int64 // next index to push at (owner-private writes)
	ring   atomic.Pointer[dequeRing]
	_      [48]byte
}

// initialDequeCap pre-sizes a fresh ring so typical regions never
// grow it; queue storage is additionally pooled across regions (see
// scheduler.go), so a ring grown once by a deep breadth-first backlog
// stays grown and steady-state execution performs no ring allocation
// at all.
const initialDequeCap = 256

type dequeRing struct {
	mask int64
	slot []atomic.Pointer[task]
}

func newDequeRing(capacity int64) *dequeRing {
	return &dequeRing{mask: capacity - 1, slot: make([]atomic.Pointer[task], capacity)}
}

func (r *dequeRing) get(i int64) *task    { return r.slot[i&r.mask].Load() }
func (r *dequeRing) put(i int64, t *task) { r.slot[i&r.mask].Store(t) }
func (r *dequeRing) capacity() int64      { return r.mask + 1 }

// grow returns a ring of twice the capacity containing the elements
// in [top, bottom).
func (r *dequeRing) grow(top, bottom int64) *dequeRing {
	nr := newDequeRing(r.capacity() * 2)
	for i := top; i < bottom; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

func newDeque() *deque {
	d := &deque{}
	d.ring.Store(newDequeRing(initialDequeCap))
	return d
}

// size returns an approximation of the number of queued tasks. It is
// exact when called by the owner with no concurrent steals.
func (d *deque) size() int64 {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return b - t
}

// pushBottom appends t at the bottom. Owner only.
func (d *deque) pushBottom(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.ring.Load()
	if b-tp >= r.capacity()-1 {
		r = r.grow(tp, b)
		d.ring.Store(r)
	}
	r.put(b, t)
	d.bottom.Store(b + 1)
}

// pushBottomBatch appends every task of ts at the bottom, publishing
// them with a single bottom store (one seq-cst write instead of
// len(ts)) after one capacity check. Owner only. Used by the
// steal-batch path to land a raid's haul on the thief's own deque.
func (d *deque) pushBottomBatch(ts []*task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.ring.Load()
	for b-tp+int64(len(ts)) >= r.capacity() {
		r = r.grow(tp, b)
		d.ring.Store(r)
	}
	for i, t := range ts {
		r.put(b+int64(i), t)
	}
	d.bottom.Store(b + int64(len(ts)))
}

// popBottom removes and returns the most recently pushed task, or nil
// if the deque is empty. Owner only.
func (d *deque) popBottom() *task {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: restore bottom.
		d.bottom.Store(tp)
		return nil
	}
	t := r.get(b)
	if tp != b {
		return t // more than one element; no race with thieves
	}
	// Single element: race with thieves for it.
	if !d.top.CompareAndSwap(tp, tp+1) {
		t = nil // a thief got it
	}
	d.bottom.Store(tp + 1)
	return t
}

// clearStale nils every ring slot and collapses the live window to
// empty. Chase–Lev never clears consumed slots itself (the
// [top, bottom) window is what is live), so a drained deque still
// pins the tasks it once held. Called only from quiescent contexts
// (scheduler Fini, with the region joined) before the deque is pooled
// for the next region.
//
// Collapsing bottom onto top is what makes pooling safe when a deque
// is Fini'd with tasks still queued (direct scheduler harnesses do
// this; the region runtime always joins first). Without it the pooled
// deque would carry a non-empty [top, bottom) window of nil slots
// into its next region: top-side consumers (stealIf, and breadthfirst
// PopLocal, which takes FIFO from its own top) return nil at a nil
// slot WITHOUT advancing top, so real tasks later pushed — or batch-
// relocated — above the ghost window would be permanently unreachable
// from the top side, wedging the region with live tasks and every
// worker parked. TestDequePoolResetsWindow pins this.
func (d *deque) clearStale() {
	r := d.ring.Load()
	for i := range r.slot {
		r.slot[i].Store(nil)
	}
	d.bottom.Store(d.top.Load())
}

// steal removes and returns the oldest task, or nil if the deque is
// empty or the steal lost a race. Callable from any goroutine.
func (d *deque) steal() *task {
	return d.stealIf(nil)
}

// stealBatchInto steals up to len(buf) of the oldest tasks into buf
// and returns the count taken, stopping at the first empty
// observation or lost CAS (a lost CAS means another thief is raiding
// the same victim; backing off beats fighting over the same line).
//
// Each task is taken with its own top CAS. A single multi-slot
// CAS(top, top+k) would NOT be linearizable here: the owner's
// uncontended popBottom freely claims index bottom-1 whenever
// top < bottom-1 without touching top, so between a thief's reads and
// its CAS the owner can pop entries in [top+1, top+k) — the CAS would
// still succeed and the raid would double-execute them. Classic
// Chase–Lev is safe precisely because a thief only ever claims index
// top itself, which the owner never free-pops. The batching win lives
// elsewhere: one victim selection, one advertisement update, and one
// bottom publish (pushBottomBatch) per raid, with the victim's
// top/ring lines hot in the thief's cache for the follow-up CASes.
func (d *deque) stealBatchInto(buf []*task) int {
	n := 0
	for n < len(buf) {
		tp := d.top.Load()
		if tp >= d.bottom.Load() {
			break
		}
		r := d.ring.Load()
		t := r.get(tp)
		if t == nil {
			break
		}
		if !d.top.CompareAndSwap(tp, tp+1) {
			break
		}
		buf[n] = t
		n++
	}
	return n
}

// stealIf is like steal but, when pred is non-nil, only completes the
// steal if pred accepts the candidate task; otherwise the task is
// left in place and nil is returned. pred may be called on a task
// that ultimately is not stolen (when the CAS fails), so it must be a
// pure function of the task.
func (d *deque) stealIf(pred func(*task) bool) *task {
	tp := d.top.Load()
	b := d.bottom.Load()
	if tp >= b {
		return nil
	}
	r := d.ring.Load()
	t := r.get(tp)
	if t == nil {
		return nil
	}
	if pred != nil && !pred(t) {
		return nil
	}
	if !d.top.CompareAndSwap(tp, tp+1) {
		return nil
	}
	return t
}
