package omp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Scheduler is the pluggable task-placement engine of one team: every
// decision about where a ready task is queued and which ready task a
// worker consumes or steals next lives behind this interface. The
// BOTS paper evaluates the same task graphs under different runtime
// scheduler configurations (work-first vs breadth-first local order,
// centralized vs distributed queues); making the scheduler a named,
// registered object turns that axis — and anything beyond it, like
// NUMA- or load-adaptive placement — into a sweepable dimension.
//
// A Scheduler instance belongs to exactly one parallel region. The
// team calls the lifecycle hooks Init (before any worker runs) and
// Fini (after the final barrier, with all queues drained); the
// per-worker operations identify the calling worker by its team slot.
//
// Contract (verified by the conformance suite in
// sched_conformance_test.go against every registered scheduler):
//
//   - Push(self, t) is called only by the worker occupying slot self
//     (task creation and dependence release are owner-side
//     operations), but the pushed task may be consumed by any worker.
//   - PopLocal/Steal with a non-nil pred must never return a task
//     rejected by pred. pred is a pure function of the task and may
//     be called on tasks that are not ultimately returned. Only Steal
//     may apply it to a task it does not yet own or hold under a lock
//     (a stale slot read): the runtime brackets constrained Steal
//     calls, and nothing else, as the section finished tasks wait out
//     before their structs are reused (pool.go).
//   - Progress rule: a worker suspended in a tied task calls
//     PopLocal with a pred accepting only descendants. Its unstarted
//     children are its own most recent pushes, so a scheduler with
//     per-worker local order must serve a constrained PopLocal from
//     the newest-first (LIFO) end — with FIFO consumption those
//     children could sit buried behind non-descendants and every
//     worker could park with runnable tasks queued. Pool schedulers
//     must instead scan for an admissible task.
//   - Queued(self) is the ready backlog cut-off policies see; for
//     pool schedulers it is the shared backlog.
type Scheduler interface {
	// Name returns the scheduler's registry name.
	Name() string
	// Init sizes the scheduler for a team of n workers. It is called
	// exactly once, before any worker starts.
	Init(n int)
	// Push makes t runnable on behalf of the worker in slot self.
	Push(self int, t *task)
	// PopLocal returns the next task from self's local queue area (or
	// from the shared pool, for pool schedulers), honouring pred, or
	// nil when nothing admissible is locally available.
	PopLocal(self int, pred func(*task) bool) *task
	// Steal takes a task queued on behalf of some other worker,
	// honouring pred, or returns nil. Pool schedulers with no
	// per-worker queues may always return nil.
	Steal(self int, pred func(*task) bool) *task
	// Queued reports self's ready backlog, as seen by queue-depth
	// cut-off policies.
	Queued(self int) int64
	// Fini is the region-end lifecycle hook, called once after the
	// final barrier with every queue drained.
	Fini()
}

// workAdvertiser is the optional scheduler extension behind the
// team-level work-advertisement word: HasStealableWork(self) reports,
// from shared atomic state maintained by Push/PopLocal/Steal, whether
// any *other* worker currently advertises queued work. When a
// scheduler implements it, an idle worker consults the word before a
// steal attempt and, on "no work anywhere", goes straight to the
// doorbell park instead of sweeping every victim's queue top — an
// O(P) cascade of remote cache-line probes per idle loop otherwise.
//
// The word must be conservative toward liveness: a queue that is
// non-empty must (after any in-flight operations complete) have its
// advertisement set. A falsely-set bit only costs one wasted sweep;
// a falsely-clear bit would strand queued work behind parked thieves.
// See advMask for the clear/recheck protocol that guarantees this.
type workAdvertiser interface {
	HasStealableWork(self int) bool
}

// seededScheduler is the optional extension for schedulers whose
// decisions are randomized: SchedulerSeed returns the region's
// victim-selection seed, surfaced in Stats (and therefore in
// `bots -json` records) for reproducibility.
type seededScheduler interface {
	SchedulerSeed() uint64
}

// DefaultScheduler is the registry name selected by an empty
// scheduler name everywhere (team option, core config, lab specs,
// CLI flags).
const DefaultScheduler = "workfirst"

// schedCtor builds a scheduler from the parsed integer arguments of a
// parameterized name (empty for the bare form) — the same arrangement
// the cut-off registry uses, so lab manifests can sweep scheduler
// *parameters* (today: the steal batch), not just scheduler kinds.
type schedCtor func(args []int64) (Scheduler, error)

var (
	schedMu  sync.RWMutex
	schedReg = map[string]schedCtor{}
)

// regionSeq counts parallel regions process-wide; the distributed
// schedulers mix it into their victim-selection seed so repeated
// regions do not replay identical steal orders (a program that opens
// the same region in a loop would otherwise see the same victim
// sequence every iteration, hiding order-dependent behaviour).
var regionSeq atomic.Uint64

// splitmix64 is the seed mixer (Steele et al.): it turns the small
// sequential region numbers into well-distributed 64-bit seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RegisterScheduler adds a scheduler constructor under name. The
// constructor returns a fresh, un-Init-ed instance per call (one per
// parallel region). It panics on empty or duplicate names; it is
// meant to be called from init functions. Schedulers registered
// through this entry point take no name parameters; the in-package
// deque family registers parameterized constructors directly.
func RegisterScheduler(name string, ctor func() Scheduler) {
	if ctor == nil {
		panic("omp: invalid scheduler registration")
	}
	registerSchedulerParam(name, func(args []int64) (Scheduler, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("omp: scheduler %q takes no parameters", name)
		}
		return ctor(), nil
	})
}

func registerSchedulerParam(name string, ctor schedCtor) {
	if name == "" || ctor == nil {
		panic("omp: invalid scheduler registration")
	}
	schedMu.Lock()
	defer schedMu.Unlock()
	if _, dup := schedReg[name]; dup {
		panic(fmt.Sprintf("omp: duplicate scheduler %q", name))
	}
	schedReg[name] = ctor
}

// Schedulers returns the sorted names of every registered scheduler —
// the single vocabulary CLI flags, lab manifests and reports validate
// against.
func Schedulers() []string {
	schedMu.RLock()
	defer schedMu.RUnlock()
	names := make([]string, 0, len(schedReg))
	for n := range schedReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewScheduler returns a fresh instance of the named scheduler — bare
// ("workfirst") or parameterized ("workfirst(8)", overriding the
// steal batch for the deque family). The empty name selects
// DefaultScheduler. It accepts exactly the strings Scheduler.Name
// renders, so names recorded in lab stores always resolve back to the
// configuration that produced them. Unknown names error with the full
// registered vocabulary, so every layer that resolves a scheduler
// name reports the same message.
func NewScheduler(name string) (Scheduler, error) {
	if name == "" {
		name = DefaultScheduler
	}
	base, args, err := parseParamName("scheduler", name)
	if err != nil {
		return nil, err
	}
	schedMu.RLock()
	ctor := schedReg[base]
	schedMu.RUnlock()
	if ctor == nil {
		return nil, fmt.Errorf("omp: unknown scheduler %q (have %s)", base, strings.Join(Schedulers(), "/"))
	}
	return ctor(args)
}

// dequeCtor builds the parameterized constructor of one deque-family
// configuration: zero arguments select the default steal batch, one
// argument overrides it (name(batch); batch 1 restores the classic
// single-task steal).
func dequeCtor(base string, fifoLocal, affinity bool) schedCtor {
	return func(args []int64) (Scheduler, error) {
		batch := int64(defaultStealBatch)
		switch len(args) {
		case 0:
		case 1:
			batch = args[0]
			if batch < 1 || batch > maxStealBatch {
				return nil, fmt.Errorf("omp: scheduler %s steal batch must be in [1,%d], got %d", base, maxStealBatch, batch)
			}
		default:
			return nil, fmt.Errorf("omp: scheduler %q takes at most one parameter (%s(batch))", base, base)
		}
		return &dequeScheduler{name: base, fifoLocal: fifoLocal, affinity: affinity, stealBatch: int(batch)}, nil
	}
}

func init() {
	registerSchedulerParam("workfirst", dequeCtor("workfirst", false, false))
	registerSchedulerParam("breadthfirst", dequeCtor("breadthfirst", true, false))
	registerSchedulerParam("locality", dequeCtor("locality", false, true))
	RegisterScheduler("centralized", func() Scheduler {
		return &centralScheduler{}
	})
}

// advMask is the work-advertisement word: one bit per worker slot,
// set when that worker's queue area is (conservatively) non-empty.
// Idle thieves read it instead of probing every victim's queue top.
//
// Maintenance protocol, relied on by the liveness argument in
// Team.barrier:
//
//   - The owner pushes to its queues FIRST and sets its bit after
//     (set may skip the CAS when the bit is already visible — see the
//     interleaving argument below).
//   - The owner clears its own bit only after a pop that left its
//     queue area empty. Only the owner ever pushes to its own queues
//     (dependence release enqueues on the releasing worker), so this
//     observation cannot be invalidated concurrently.
//   - A thief that observed a victim's queues empty clears the
//     victim's bit, RE-CHECKS the victim's queues, and re-sets the
//     bit if they are non-empty.
//
// Why the skip-if-set push is safe against a racing thief clear
// (sequentially-consistent atomics): if the pusher's load saw the bit
// set, the thief's clear is ordered after that load, hence after the
// queue push; the thief's recheck is ordered after its own clear and
// therefore observes the pushed task and restores the bit. Either
// way a non-empty queue ends with its bit set.
type advMask struct {
	words []atomic.Uint64
}

// init allocates the mask for a team of n workers. Scheduler
// instances are constructed fresh per region (see RegisterScheduler),
// so there is no prior storage to reuse.
func (a *advMask) init(n int) {
	a.words = make([]atomic.Uint64, (n+63)/64)
}

func (a *advMask) set(i int) {
	w := &a.words[i>>6]
	bit := uint64(1) << (uint(i) & 63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (a *advMask) clear(i int) {
	w := &a.words[i>>6]
	bit := uint64(1) << (uint(i) & 63)
	for {
		old := w.Load()
		if old&bit == 0 {
			return
		}
		if w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// anyOther reports whether any slot besides self advertises work.
func (a *advMask) anyOther(self int) bool {
	selfWord, selfBit := self>>6, uint64(1)<<(uint(self)&63)
	for i := range a.words {
		v := a.words[i].Load()
		if i == selfWord {
			v &^= selfBit
		}
		if v != 0 {
			return true
		}
	}
	return false
}

// dequeScheduler is the distributed-queue scheduler family: one
// Chase–Lev deque plus one priority queue per worker. Three of the
// registered schedulers are configurations of it:
//
//   - workfirst: the owner pops its own deque LIFO (depth-first), the
//     classic work-stealing discipline; thieves steal FIFO from the
//     top, taking the shallowest (largest) subtrees.
//   - breadthfirst: the owner consumes its own deque FIFO as well, so
//     tasks execute roughly in creation order.
//   - locality: work-first local order plus affinity stealing — a
//     thief returns to its last successful victim before sweeping.
//
// All three steal in batches by default: an unconstrained raid takes
// up to half the victim's backlog (capped by the steal batch) in one
// visit, amortizing victim selection, advertisement maintenance and
// the thief's own publish over many tasks. The batch is the family's
// registry parameter — "workfirst(1)" restores single-task stealing,
// "workfirst(8)" caps a raid at 8 tasks — so the knob is sweepable
// through lab manifests like the cut-off limits are.
//
// All three maintain the work-advertisement word (advMask), so an
// idle team parks on the doorbell instead of sweeping P empty queue
// tops per probe.
type dequeScheduler struct {
	name       string
	fifoLocal  bool // own-queue FIFO when unconstrained (breadthfirst)
	affinity   bool // retry the last successful victim first (locality)
	stealBatch int  // max tasks per raid; <=1 means classic single steal
	seed       uint64
	ws         []schedSlot
	adv        advMask
}

// defaultStealBatch is the raid cap the bare deque-family names
// select (half the victim's backlog is taken, but never more than
// this). maxStealBatch bounds the parameterized form; it also sizes
// the per-slot raid buffer, so it is kept small.
const (
	defaultStealBatch = 32
	maxStealBatch     = 256
)

// schedSlot is one worker's queue state, padded to a full cache line
// so owner-written fields of adjacent slots never share one (the
// false-sharing audit in DESIGN.md §12 measures why). qp is the
// pooled wrapper the queues arrived in, kept so Fini can return it
// without allocating a fresh one. batchBuf is the owner-only raid
// scratch the steal-batch path fills and drains (its backing array
// lives in the pooled queuePair).
type schedSlot struct {
	dq         *deque
	pq         *prioQueue
	qp         *queuePair
	batchBuf   []*task
	rng        uint64 // victim-selection PRNG state, owner-only
	lastVictim int    // last successful steal victim, owner-only
	// Pad the 64 bytes of fields to 128 — two cache lines, so a slot
	// never shares a line with its neighbours regardless of where the
	// backing array starts, and the adjacent-line prefetcher cannot
	// couple neighbouring slots either. Size pinned by TestPaddedLayout.
	_ [64]byte
}

// queuePair is the pooled storage unit of the distributed schedulers:
// one worker's deque, priority queue and raid buffer, kept (with
// their grown rings and item arrays) across parallel regions. A
// scheduler instance belongs to one region, but its queue storage is
// the steady-state allocation cost of opening a region — pooling it
// means a program that opens regions in a loop stops allocating queue
// storage at all.
type queuePair struct {
	dq  *deque
	pq  *prioQueue
	buf []*task // raid scratch; grown to the region's steal batch
}

var queuePairPool = sync.Pool{New: func() any {
	return &queuePair{dq: newDeque(), pq: &prioQueue{}}
}}

// Name renders the registry form NewScheduler parses back: the bare
// family name at the default steal batch, name(batch) otherwise — so
// the batch knob rides inside every recorded policy string (lab keys,
// bots -json) with no schema change.
func (d *dequeScheduler) Name() string {
	if d.stealBatch == defaultStealBatch {
		return d.name
	}
	return fmt.Sprintf("%s(%d)", d.name, d.stealBatch)
}

// SchedulerSeed returns the region's victim-selection seed (mixed
// from the process-wide region sequence number), surfaced in Stats
// for reproducibility of steal orders.
func (d *dequeScheduler) SchedulerSeed() uint64 { return d.seed }

func (d *dequeScheduler) Init(n int) {
	d.seed = splitmix64(regionSeq.Add(1))
	d.adv.init(n)
	d.ws = make([]schedSlot, n)
	for i := range d.ws {
		q := queuePairPool.Get().(*queuePair)
		rng := splitmix64(d.seed + uint64(i))
		if rng == 0 {
			rng = 0x2545f4914f6cdd1d // xorshift64* needs a non-zero state
		}
		if need := d.stealBatch - 1; need > 0 && cap(q.buf) < need {
			q.buf = make([]*task, need)
		}
		d.ws[i] = schedSlot{
			dq:         q.dq,
			pq:         q.pq,
			qp:         q,
			batchBuf:   q.buf[:cap(q.buf)],
			rng:        rng,
			lastVictim: -1,
		}
	}
}

// Fini returns the (drained) queue storage to the pool, clearing
// stale task pointers first so pooled queues do not pin the finished
// region's tasks.
func (d *dequeScheduler) Fini() {
	for i := range d.ws {
		s := &d.ws[i]
		s.dq.clearStale()
		s.pq.clearStale()
		clearTasks(s.batchBuf) // raid scratch must not pin tasks in the pool
		queuePairPool.Put(s.qp)
		s.dq, s.pq, s.qp, s.batchBuf = nil, nil, nil, nil
	}
	d.ws = nil
}

func (d *dequeScheduler) Push(self int, t *task) {
	s := &d.ws[self]
	if t.priority != 0 {
		s.pq.push(t)
	} else {
		s.dq.pushBottom(t)
	}
	// Advertise after the push (see advMask for why this order is the
	// one that can never leave a non-empty queue unadvertised).
	d.adv.set(self)
}

// slotEmpty reports whether slot i's queue area is currently empty.
func (d *dequeScheduler) slotEmpty(i int) bool {
	s := &d.ws[i]
	return s.dq.size() == 0 && s.pq.size() == 0
}

func (d *dequeScheduler) PopLocal(self int, pred func(*task) bool) *task {
	s := &d.ws[self]
	t := d.popLocalRaw(self, s, pred)
	if t != nil && d.slotEmpty(self) {
		// Owner-side clear: only the owner pushes to these queues, so
		// the emptiness observation cannot be invalidated before the
		// clear lands (thieves only remove).
		d.adv.clear(self)
	}
	return t
}

func (d *dequeScheduler) popLocalRaw(self int, s *schedSlot, pred func(*task) bool) *task {
	// Prioritized tasks run before anything in the regular deque.
	if t := s.pq.take(pred); t != nil {
		return t
	}
	if pred == nil {
		if d.fifoLocal {
			return s.dq.steal() // FIFO end of own deque
		}
		return s.dq.popBottom()
	}
	// A constrained (tied) waiter must use the LIFO bottom end
	// regardless of local order: its own unstarted children are always
	// the most recent pushes (the progress rule above).
	t := s.dq.popBottom()
	if t != nil && !pred(t) {
		// Cannot run it here now; put it back for thieves and park.
		s.dq.pushBottom(t)
		// Re-advertise: the queue was transiently empty between the
		// pop and the push-back, and a thief's clearVictim recheck may
		// have straddled exactly that window and left the bit clear.
		// Without this set the queue could sit non-empty but
		// unadvertised forever (every other path that makes the slot
		// non-empty goes through Push), gating thieves off work they
		// are the only workers able to run.
		d.adv.set(self)
		return nil
	}
	return t
}

// HasStealableWork reports the advertisement word: whether any other
// worker's queue area advertises queued tasks. The team's idle loop
// consults it before a steal attempt (see worker.runOne).
func (d *dequeScheduler) HasStealableWork(self int) bool {
	return d.adv.anyOther(self)
}

func (d *dequeScheduler) Steal(self int, pred func(*task) bool) *task {
	n := len(d.ws)
	if n == 1 {
		return nil
	}
	me := &d.ws[self]
	if d.affinity && me.lastVictim >= 0 && me.lastVictim != self {
		if t := d.takeFrom(self, me.lastVictim, pred); t != nil {
			return t
		}
	}
	// Random victim, then sweep the rest.
	start := int(nextRand(&me.rng) % uint64(n))
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == self {
			continue
		}
		if t := d.takeFrom(self, v, pred); t != nil {
			if d.affinity {
				me.lastVictim = v
			}
			return t
		}
	}
	if d.affinity {
		me.lastVictim = -1
	}
	return nil
}

// takeFrom raids one victim: its priority queue before its deque.
// With a steal batch above one and no constraint, a successful deque
// steal also moves up to min(batch-1, half the victim's remaining
// backlog) onto the thief's own deque in one raid — the per-item
// steals run inside the deque (stealBatchInto) and land with a single
// batched publish (pushBottomBatch; the thief owns its bottom end).
// A constrained thief takes a single admissible task — bulk-moving
// tasks it may not be allowed to run would only bury them.
//
// The raid rule: a raid moves only tasks whose parent is untied
// (raidable). A stolen task with a tied parent is taken alone, and a
// raid ends at the first claimed task whose parent is tied, which
// travels as its last task. The reason is the tied waiter. In a
// recursive kernel the victim's backlog is its pending children at
// every depth of its spine, and the tied tasks waiting on them stay on
// the victim. Once those children sit mid-deque on the thief, neither
// the waiter's constrained PopLocal (its own bottom) nor its
// constrained Steal (victims' tops, where the thief's shallowest moved
// task sits) reaches them, so the waiter parks until the thief has
// finished its whole subtree — woken for nothing by each of the
// thief's spawns (DESIGN §12.2 has the numbers). An untied waiter may
// run anything, so untied kernels keep steal-half.
//
// The rule reads t.parent.untied only after the top CAS has claimed t,
// so no quiesce bracket is needed: the thief owns an unstarted t, whose
// parent therefore still counts it in pending. That parent is either
// unfinished or finished non-strict, and a non-strict task is buried
// until quiescence (pool.go), so its struct is not reused under the
// read.
//
// Liveness does not rest on the rule. A relocated task can still be a
// descendant that a tied ancestor waits for (a Taskgroup drain waits on
// all of them, through untied parents too). The park/wake protocol
// wakes every parked waiter on every enqueue, dependence release
// included (worker.enqueue), and on the completion of its own last
// child (task.finish), and the holder's own progress eventually pops
// or exposes buried tasks at an accessible end. A future scheduler
// that relocates tasks *and* parks without those wakes would
// deadlock; keep both halves of the protocol.
func (d *dequeScheduler) takeFrom(self, victim int, pred func(*task) bool) *task {
	vs := &d.ws[victim]
	if t := vs.pq.take(pred); t != nil {
		if d.slotEmpty(victim) {
			d.clearVictim(victim)
		}
		return t
	}
	t := vs.dq.stealIf(pred)
	if t == nil {
		// Unconstrained and observed empty: retract the victim's
		// advertisement so future probes skip it. A constrained miss
		// proves nothing about emptiness.
		if pred == nil && d.slotEmpty(victim) {
			d.clearVictim(victim)
		}
		return nil
	}
	if d.stealBatch > 1 && pred == nil && t.raidable() {
		me := &d.ws[self]
		k := int(vs.dq.size() / 2)
		if k > d.stealBatch-1 {
			k = d.stealBatch - 1
		}
		if k > 0 {
			if n := vs.dq.stealBatchInto(me.batchBuf[:k]); n > 0 {
				me.dq.pushBottomBatch(me.batchBuf[:n])
				clearTasks(me.batchBuf[:n]) // scratch must not pin tasks
				d.adv.set(self)             // relocated backlog is stealable from us now
			}
		}
	}
	if d.slotEmpty(victim) {
		d.clearVictim(victim)
	}
	return t
}

// clearVictim retracts victim's advertisement bit, then re-checks the
// victim's queues and restores the bit if they are non-empty — the
// thief-side half of the advMask protocol (a clear must never be the
// last word on a queue that concurrently received a push).
func (d *dequeScheduler) clearVictim(victim int) {
	d.adv.clear(victim)
	if !d.slotEmpty(victim) {
		d.adv.set(victim)
	}
}

func (d *dequeScheduler) Queued(self int) int64 {
	s := &d.ws[self]
	return s.dq.size() + s.pq.size()
}

// nextRand is xorshift64* for victim selection.
func nextRand(state *uint64) uint64 {
	x := *state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*state = x
	return x * 0x2545f4914f6cdd1d
}

// centralRingCap is the bounded MPMC ring capacity of the centralized
// scheduler (tasks; a power of two). Backlogs beyond it spill to the
// mutex-guarded overflow list and are moved back in bulk, so the lock
// is amortized over ring-capacity tasks even when a breadth-first
// frontier overflows.
const centralRingCap = 1024

// centralScheduler is the classic breadth-first pool configuration
// from the paper's design space: a single shared team queue. Every
// deferred task goes into one queue (prioritized tasks into one
// shared priority queue, drained first); every worker takes from the
// front, so tasks execute globally in roughly creation order and
// there is no stealing — and, past a few threads, no queue-level
// locality either, which is exactly the contention-vs-balance
// trade-off the centralized-vs-distributed ablation measures.
//
// The hot path is a bounded lock-free MPMC ring (mpmc.go): Push and
// an unconstrained PopLocal are one CAS each, so the ablation
// measures the queue *discipline* (one shared FIFO vs distributed
// deques) rather than Go mutex convoy effects. The mutex guards only
// the two slow paths:
//
//   - overflow: pushes that find the ring full append to `over`;
//     consumers that find the ring empty move `over` back into the
//     ring in bulk (one lock per ~ring-capacity tasks);
//   - constrained scans: a tied waiter must be able to reach any
//     admissible queued task (the progress rule), so it drains the
//     ring and overflow into the `held` list under the mutex and
//     scans that newest-first — a waiter's own unstarted children are
//     its most recent pushes, so the scan typically succeeds within a
//     few entries from the tail. `held` entries are older than the
//     ring and are consumed first, preserving rough creation order;
//     mid-list removal nils the vacated tail slot eagerly so a
//     long-running region never pins finished tasks.
type centralScheduler struct {
	pq   *prioQueue // shared: prioritized tasks, drained before the FIFO
	ring *mpmcRing

	// nheld/nover let the lock-free fast path skip the mutex when the
	// slow-path lists are empty (the steady state).
	nheld atomic.Int32
	nover atomic.Int32

	mu       sync.Mutex
	held     []*task // drained by constrained scans; older than ring
	heldHead int     // index of the oldest live entry in held
	over     []*task // ring overflow; newer than ring

	storage *centralStorage // pooled wrapper, returned whole in Fini
}

// centralStorage is the pooled queue storage of the centralized
// scheduler: the MPMC ring, the slow-path lists and the shared
// priority queue survive the per-region scheduler instance (the
// distributed schedulers pool their queue storage the same way; see
// queuePairPool).
type centralStorage struct {
	ring *mpmcRing
	held []*task
	over []*task
	pq   *prioQueue
}

var centralStoragePool = sync.Pool{New: func() any {
	return &centralStorage{ring: newMPMCRing(centralRingCap), pq: &prioQueue{}}
}}

func (c *centralScheduler) Name() string { return "centralized" }

func (c *centralScheduler) Init(n int) {
	c.storage = centralStoragePool.Get().(*centralStorage)
	c.ring = c.storage.ring
	c.held = c.storage.held[:0]
	c.heldHead = 0
	c.over = c.storage.over[:0]
	c.pq = c.storage.pq
}

func (c *centralScheduler) Fini() {
	for t := c.ring.tryPop(); t != nil; t = c.ring.tryPop() {
		// The contract drains queues before Fini; defensively clear any
		// remainder so the pooled ring pins nothing.
	}
	clearTasks(c.held[:cap(c.held)])
	clearTasks(c.over[:cap(c.over)])
	c.storage.held = c.held[:0]
	c.storage.over = c.over[:0]
	c.pq.clearStale()
	centralStoragePool.Put(c.storage)
	c.ring, c.held, c.over, c.pq, c.storage = nil, nil, nil, nil, nil
	c.heldHead = 0
	c.nheld.Store(0)
	c.nover.Store(0)
}

func clearTasks(ts []*task) {
	for i := range ts {
		ts[i] = nil
	}
}

// Push enqueues lock-free while the ring has room; a full ring spills
// to the overflow list under the mutex.
func (c *centralScheduler) Push(self int, t *task) {
	if t.priority != 0 {
		c.pq.push(t)
		return
	}
	if c.ring.tryPush(t) {
		return
	}
	c.mu.Lock()
	c.over = append(c.over, t)
	c.nover.Store(int32(len(c.over)))
	c.mu.Unlock()
}

// PopLocal takes from the shared pool: the highest-priority task
// first, then the oldest available task. The unconstrained path is
// lock-free (one ring pop) unless a slow-path list is non-empty; a
// constrained waiter scans the whole queue under the mutex — with a
// single pool that scan is the only way its unstarted children stay
// reachable (the progress rule).
func (c *centralScheduler) PopLocal(self int, pred func(*task) bool) *task {
	if t := c.pq.take(pred); t != nil {
		return t
	}
	if pred != nil {
		return c.takeConstrained(pred)
	}
	for {
		// held entries are older than the ring: consume them first so
		// the pool keeps rough FIFO order across the slow path.
		if c.nheld.Load() > 0 {
			if t := c.popHeld(); t != nil {
				return t
			}
		}
		if t := c.ring.tryPop(); t != nil {
			return t
		}
		if c.nover.Load() > 0 && c.refillFromOverflow() {
			continue
		}
		// The ring was observed empty — but a concurrent constrained
		// scan may have drained it into held after the nheld check
		// above. The scan pre-stores a conservative non-zero nheld
		// before its first ring pop, so if our empty observation came
		// from its drain this re-load cannot miss it (and popHeld
		// blocks on the mutex until the scan ends). Without the
		// re-check, every task in transit from ring to held would be
		// invisible to this fast path for the duration of the scan,
		// and a barrier parker probing in that window could park with
		// work queued and no later ring to wake it.
		if c.nheld.Load() > 0 {
			continue
		}
		return nil
	}
}

// popHeld takes the oldest held entry under the mutex, nil-ing the
// vacated slot and compacting the backing array once the dead prefix
// dominates.
func (c *centralScheduler) popHeld() *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.heldHead >= len(c.held) {
		// Holding the mutex means no scan is in flight, so the exact
		// (zero) count can be restored here; a stale conservative
		// pre-store must not keep PopLocal's re-check looping.
		c.nheld.Store(0)
		return nil
	}
	t := c.held[c.heldHead]
	c.held[c.heldHead] = nil
	c.heldHead++
	if c.heldHead > len(c.held)/2 && c.heldHead > 32 {
		n := copy(c.held, c.held[c.heldHead:])
		clearTasks(c.held[n:])
		c.held = c.held[:n]
		c.heldHead = 0
	}
	c.nheld.Store(int32(len(c.held) - c.heldHead))
	return t
}

// refillFromOverflow moves overflowed tasks back into the ring in
// bulk. It returns false when there was nothing to move (the queue is
// genuinely empty from this consumer's point of view).
func (c *centralScheduler) refillFromOverflow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.over) == 0 {
		return false
	}
	moved := 0
	for _, t := range c.over {
		if !c.ring.tryPush(t) {
			break
		}
		moved++
	}
	if moved == 0 {
		return false
	}
	n := copy(c.over, c.over[moved:])
	clearTasks(c.over[n:])
	c.over = c.over[:n]
	c.nover.Store(int32(n))
	return true
}

// takeConstrained serves a tied waiter: under the mutex, drain the
// ring and the overflow into held (preserving arrival order) and scan
// newest-first for an admissible task. Newest-first matters: the
// waiter's own unstarted children are the youngest entries, so the
// common case touches a handful of tail slots instead of walking a
// deep breadth-first frontier from the head.
func (c *centralScheduler) takeConstrained(pred func(*task) bool) *task {
	if c.nheld.Load() == 0 && c.nover.Load() == 0 && c.ring.size() == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Pre-store a conservative non-zero held count before the first
	// ring pop: a lock-free consumer that observes the ring empty
	// mid-drain re-checks nheld (see PopLocal) and falls into popHeld
	// — which blocks here until the scan ends — instead of reporting
	// an empty pool while its tasks are in transit to held. The exact
	// count is restored below.
	c.nheld.Store(int32(len(c.held)-c.heldHead) + 1)
	for t := c.ring.tryPop(); t != nil; t = c.ring.tryPop() {
		c.held = append(c.held, t)
	}
	if len(c.over) > 0 {
		c.held = append(c.held, c.over...)
		clearTasks(c.over)
		c.over = c.over[:0]
		c.nover.Store(0)
	}
	var found *task
	for i := len(c.held) - 1; i >= c.heldHead; i-- {
		if t := c.held[i]; pred(t) {
			found = t
			copy(c.held[i:], c.held[i+1:])
			c.held[len(c.held)-1] = nil // eager: don't pin t's successor slot
			c.held = c.held[:len(c.held)-1]
			break
		}
	}
	c.nheld.Store(int32(len(c.held) - c.heldHead))
	return found
}

// Steal always fails: a single shared queue has nothing worker-local
// to steal from; PopLocal already reaches every queued task.
func (c *centralScheduler) Steal(self int, pred func(*task) bool) *task { return nil }

// HasStealableWork always reports false for the same reason, so idle
// workers skip the (by-construction futile) steal attempt entirely
// and the StealAttempts/StealFails counters stay quiet under the
// centralized discipline.
func (c *centralScheduler) HasStealableWork(self int) bool { return false }

// Queued reports the shared backlog — the same value for every
// worker, so a MaxQueue cut-off bounds the team queue as a whole. All
// components are atomic counters, so cut-off probes on the spawn hot
// path take no lock.
func (c *centralScheduler) Queued(self int) int64 {
	return int64(c.nheld.Load()) + int64(c.nover.Load()) + c.ring.size() + c.pq.size()
}
