package lab

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Fleet is the coordinator side of the distributed sweep fleet
// (DESIGN.md §13): a lease-based job queue in the mold of simq's
// dispatcher/simd protocol. Worker daemons (cmd/botsd, or an
// in-process WorkerClient) register with a capacity, pull pending
// JobSpecs as *leases* (a job the coordinator holds for them until a
// deadline), renew them with heartbeats while executing, and ship the
// finished Record back.
//
// Each enqueued job is leased at most once and gets exactly one
// outcome, delivered to the waiter that enqueued it (a RemoteRunner
// blocked in RunContext): the worker's record, or an error when the
// worker reports a failure, its lease expires (dead worker, missed
// heartbeats) or it deregisters holding the lease. The fleet keeps no
// attempt count of its own: the dispatcher above the RemoteRunner
// decides whether and when a cell is tried again. A record that
// arrives after its waiter is gone (abandoned job, expired lease
// racing a slow worker) is not discarded: it is written straight to
// the configured Store, where content-addressed keys make the
// duplicate write idempotent and the dispatcher's retry a store hit.
type Fleet struct {
	cfg FleetConfig

	mu      sync.Mutex
	nextID  int
	workers map[string]*fleetWorker
	queue   []*fleetJob // pending jobs in submission order
	leases  map[string]*fleetLease

	// lifetime counters behind the bots_lab_* fleet metrics
	granted    int64 // leases handed out
	expired    int64 // leases lost to a missed deadline or a deregistration
	completed  int64 // jobs finished with a record
	failedJobs int64 // jobs whose lease ended without a record
	orphans    int64 // records landed after their waiter left

	stopOnce sync.Once
	stop     chan struct{}
}

// FleetConfig tunes the coordinator. Zero values select defaults.
type FleetConfig struct {
	// LeaseTTL is how long a lease stays valid without a heartbeat
	// (default 10s). Workers are told to heartbeat at TTL/3.
	LeaseTTL time.Duration
	// Store, when non-nil, receives orphan records (results whose
	// waiter is gone) so finished work is never thrown away.
	Store *Store
	// Journal, when non-nil, receives lease traffic (grants, renewals,
	// completions) for crash-recovery accounting.
	Journal *Journal
	// Clock replaces time.Now for tests. When set, the fleet does NOT
	// run its background expiry ticker; the test drives ExpireDue.
	Clock func() time.Time
	// ExpiryTick forces the background expiry ticker even when Clock is
	// set — for chaos tests that skew the coordinator's clock but still
	// want real-time expiry behaviour.
	ExpiryTick time.Duration
}

func (c *FleetConfig) withDefaults() FleetConfig {
	out := *c
	if out.LeaseTTL <= 0 {
		out.LeaseTTL = 10 * time.Second
	}
	return out
}

// NewFleet returns a coordinator. With a real clock (cfg.Clock nil)
// it runs a background expiry scan every LeaseTTL/4 until Close.
func NewFleet(cfg FleetConfig) *Fleet {
	f := &Fleet{
		cfg:     cfg.withDefaults(),
		workers: map[string]*fleetWorker{},
		leases:  map[string]*fleetLease{},
		stop:    make(chan struct{}),
	}
	switch {
	case f.cfg.Clock == nil:
		go f.expireLoop(f.cfg.LeaseTTL / 4)
	case f.cfg.ExpiryTick > 0:
		go f.expireLoop(f.cfg.ExpiryTick)
	}
	return f
}

// Close stops the background expiry scan. Pending jobs and leases are
// left as-is (the owning process is exiting).
func (f *Fleet) Close() { f.stopOnce.Do(func() { close(f.stop) }) }

// LeaseTTL returns the configured lease lifetime, advertised to
// workers at registration so they can pick a heartbeat cadence.
func (f *Fleet) LeaseTTL() time.Duration { return f.cfg.LeaseTTL }

func (f *Fleet) now() time.Time {
	if f.cfg.Clock != nil {
		return f.cfg.Clock()
	}
	return time.Now()
}

func (f *Fleet) expireLoop(tick time.Duration) {
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.ExpireDue()
		}
	}
}

// fleetWorker is the coordinator's view of one registered daemon.
type fleetWorker struct {
	id         string
	name       string
	capacity   int
	registered time.Time
	lastSeen   time.Time
	leases     map[string]*fleetLease
	done       int
	failed     int
}

// fleetJob is one enqueued cell waiting for (or out on) its lease.
type fleetJob struct {
	id        string
	spec      JobSpec
	key       string
	result    chan jobOutcome // buffered 1: the job's one outcome, sent under f.mu
	abandoned bool
}

type jobOutcome struct {
	rec *Record
	err error
}

// fleetLease is one in-flight grant.
type fleetLease struct {
	id       string
	job      *fleetJob
	workerID string
	deadline time.Time
	elapsed  time.Duration // worker-reported progress, via heartbeats
}

// Lease is the wire form of a grant. It carries no deadline: only the
// coordinator measures a lease's lifetime, on its own clock, so clock
// skew between the hosts cannot strand one (DESIGN.md §14). The worker
// heartbeats at a third of the TTL it learned at registration and
// hears of a lost lease in the heartbeat's reply.
type Lease struct {
	ID   string  `json:"id"`
	Key  string  `json:"key"`
	Spec JobSpec `json:"spec"`
}

// FleetTicket tracks one enqueued job for the party awaiting its
// record.
type FleetTicket struct {
	f   *Fleet
	job *fleetJob
}

// Enqueue adds one cell to the fleet queue and returns a ticket to
// wait on. The spec is normalized so the queue and the store agree on
// the job's identity.
func (f *Fleet) Enqueue(spec JobSpec) *FleetTicket {
	spec, key := spec.identify()
	f.mu.Lock()
	f.nextID++
	job := &fleetJob{
		id:     fmt.Sprintf("j%d", f.nextID),
		spec:   spec,
		key:    key,
		result: make(chan jobOutcome, 1),
	}
	f.queue = append(f.queue, job)
	f.mu.Unlock()
	return &FleetTicket{f: f, job: job}
}

// Wait blocks until the job completes or ctx is cancelled. On
// cancellation the job is abandoned: removed from the queue if still
// pending, and — if already leased — left to finish as an orphan
// whose record lands in the store.
func (t *FleetTicket) Wait(ctx context.Context) (*Record, error) {
	select {
	case out := <-t.job.result:
		return out.rec, out.err
	case <-ctx.Done():
		t.f.abandon(t.job)
		// A completion may have raced the cancellation; prefer it.
		select {
		case out := <-t.job.result:
			return out.rec, out.err
		default:
			return nil, ctx.Err()
		}
	}
}

func (f *Fleet) abandon(job *fleetJob) {
	f.mu.Lock()
	defer f.mu.Unlock()
	job.abandoned = true
	for i, q := range f.queue {
		if q == job {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			return
		}
	}
}

// Register adds (or refreshes) a worker and returns its fleet ID.
func (f *Fleet) Register(name string, capacity int) string {
	if capacity < 1 {
		capacity = 1
	}
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	w := &fleetWorker{
		id:         fmt.Sprintf("w%d", f.nextID),
		name:       name,
		capacity:   capacity,
		registered: now,
		lastSeen:   now,
		leases:     map[string]*fleetLease{},
	}
	f.workers[w.id] = w
	return w.id
}

// Deregister removes a worker. Any leases it still holds expire
// immediately and fail their jobs — a graceful drain (botsd on
// SIGTERM) completes its leases *before* deregistering, so reaching
// this with live leases means the worker is giving up.
func (f *Fleet) Deregister(workerID string) {
	f.mu.Lock()
	w, ok := f.workers[workerID]
	if !ok {
		f.mu.Unlock()
		return
	}
	delete(f.workers, workerID)
	for _, l := range w.leases {
		f.loseLocked(l, fmt.Errorf("lab: job %s lost: worker %s deregistered holding lease %s", l.job.key, workerID, l.id))
	}
	f.mu.Unlock()
}

// loseLocked drops a lease that ends without a record (expiry or
// deregistration), counts it, and fails its job with err. Like every
// outcome it is sent under f.mu, so abandon and the send are ordered;
// the send cannot block, since a job has one lease, one outcome and a
// one-slot channel.
func (f *Fleet) loseLocked(l *fleetLease, err error) {
	delete(f.leases, l.id)
	if w := f.workers[l.workerID]; w != nil {
		delete(w.leases, l.id)
	}
	f.expired++
	f.failedJobs++
	l.job.result <- jobOutcome{err: err}
}

// ErrUnknownWorker is returned by Lease/Heartbeat for a worker ID the
// fleet does not know (never registered, or deregistered); the worker
// should re-register.
var ErrUnknownWorker = fmt.Errorf("lab: unknown fleet worker")

// Lease grants up to max pending jobs, oldest first, to the worker,
// each with a fresh deadline. An empty grant means "poll again later".
func (f *Fleet) Lease(workerID string, max int) ([]Lease, error) {
	if max < 1 {
		max = 1
	}
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	n := min(max, len(f.queue))
	grants := make([]Lease, n)
	for i, job := range f.queue[:n] {
		f.nextID++
		l := &fleetLease{
			id:       fmt.Sprintf("l%d", f.nextID),
			job:      job,
			workerID: w.id,
			deadline: now.Add(f.cfg.LeaseTTL),
		}
		f.leases[l.id] = l
		w.leases[l.id] = l
		f.granted++
		// Every lease is its job's only one; the dispatcher counts a
		// cell's attempts.
		f.cfg.Journal.LeaseGranted(l.id, job.key, w.id, 1)
		grants[i] = Lease{ID: l.id, Key: job.key, Spec: job.spec}
	}
	clear(f.queue[:n])
	f.queue = f.queue[n:]
	return grants, nil
}

// HeartbeatProgress is one worker-reported in-flight lease.
type HeartbeatProgress struct {
	ID        string `json:"id"`
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
}

// Heartbeat marks the worker live and renews the named leases,
// recording reported progress. It returns the renewed lease IDs and
// the ones the fleet no longer recognizes (already expired) so the
// worker knows which executions became orphans.
func (f *Fleet) Heartbeat(workerID string, progress []HeartbeatProgress) (renewed, lost []string, err error) {
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[workerID]
	if !ok {
		return nil, nil, fmt.Errorf("%w %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	for _, p := range progress {
		l, ok := w.leases[p.ID]
		if !ok {
			lost = append(lost, p.ID)
			continue
		}
		l.deadline = now.Add(f.cfg.LeaseTTL)
		l.elapsed = time.Duration(p.ElapsedNS)
		f.cfg.Journal.LeaseRenewed(p.ID)
		renewed = append(renewed, p.ID)
	}
	return renewed, lost, nil
}

// Complete finishes a lease: a record delivers the job, an error
// message fails it. A completion for an unknown lease (expired while
// the worker kept running, or a retried post) is an orphan: its
// record, if any, still goes to the store, where the
// content-addressed key keeps the duplicate write idempotent.
func (f *Fleet) Complete(leaseID string, rec *Record, errMsg string) {
	f.mu.Lock()
	l, ok := f.leases[leaseID]
	if !ok {
		f.mu.Unlock()
		if rec != nil {
			f.storeOrphan(rec)
		}
		return
	}
	delete(f.leases, leaseID)
	w := f.workers[l.workerID]
	if w != nil {
		delete(w.leases, leaseID)
	}
	job := l.job
	f.cfg.Journal.LeaseCompleted(leaseID, job.key, errMsg == "" && rec != nil)
	var orphan *Record
	if errMsg == "" && rec != nil {
		f.completed++
		if w != nil {
			w.done++
		}
		if job.abandoned {
			orphan = rec // the waiter left; keep the record anyway
		} else {
			job.result <- jobOutcome{rec: rec}
		}
	} else {
		f.failedJobs++
		if w != nil {
			w.failed++
		}
		if errMsg == "" {
			errMsg = "worker returned neither record nor error"
		}
		job.result <- jobOutcome{err: fmt.Errorf("lab: job %s failed on worker %s: %s", job.key, l.workerID, errMsg)}
	}
	f.mu.Unlock()
	if orphan != nil {
		f.storeOrphan(orphan)
	}
}

func (f *Fleet) storeOrphan(rec *Record) {
	f.mu.Lock()
	f.orphans++
	st := f.cfg.Store
	f.mu.Unlock()
	if st != nil {
		st.Put(rec)
	}
}

// ExpireDue scans for leases past their deadline and fails their
// jobs. It reports how many leases expired. The background ticker
// calls this every LeaseTTL/4; tests with a fake clock call it
// directly.
func (f *Fleet) ExpireDue() int {
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, l := range f.leases {
		if !now.Before(l.deadline) {
			f.loseLocked(l, fmt.Errorf("lab: job %s lost: lease %s expired (worker dead or stalled)", l.job.key, l.id))
			n++
		}
	}
	return n
}

// Worker states reported by Status and the bots_lab_workers gauge.
const (
	WorkerIdle = "idle" // registered, no active leases
	WorkerBusy = "busy" // at least one active lease
	WorkerDead = "dead" // not heard from for > 3 lease TTLs
)

// WorkerView is the externally visible state of one worker.
type WorkerView struct {
	ID           string         `json:"id"`
	Name         string         `json:"name"`
	Capacity     int            `json:"capacity"`
	State        string         `json:"state"`
	ActiveLeases int            `json:"active_leases"`
	Done         int            `json:"done"`
	Failed       int            `json:"failed"`
	LastSeen     time.Time      `json:"last_seen"`
	Running      []RunningLease `json:"running,omitempty"`
}

// RunningLease is one in-flight lease as shown by GET /workers.
type RunningLease struct {
	LeaseID   string    `json:"lease_id"`
	Key       string    `json:"key"`
	Deadline  time.Time `json:"deadline"`
	ElapsedNS int64     `json:"elapsed_ns,omitempty"`
}

// FleetStatus is a point-in-time snapshot of the coordinator: the
// GET /workers body and the source of the fleet metrics.
type FleetStatus struct {
	Workers       []WorkerView `json:"workers"`
	QueueDepth    int          `json:"queue_depth"`
	LeasesActive  int          `json:"leases_active"`
	LeasesGranted int64        `json:"leases_granted"`
	LeasesExpired int64        `json:"leases_expired"`
	JobsCompleted int64        `json:"jobs_completed"`
	JobsFailed    int64        `json:"jobs_failed"`
	OrphanResults int64        `json:"orphan_results"`
}

// WorkersByState counts workers per state, for the workers gauge.
func (s FleetStatus) WorkersByState() map[string]int {
	out := map[string]int{WorkerIdle: 0, WorkerBusy: 0, WorkerDead: 0}
	for _, w := range s.Workers {
		out[w.State]++
	}
	return out
}

// Status snapshots the fleet.
func (f *Fleet) Status() FleetStatus {
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FleetStatus{
		Workers:       []WorkerView{},
		QueueDepth:    len(f.queue),
		LeasesActive:  len(f.leases),
		LeasesGranted: f.granted,
		LeasesExpired: f.expired,
		JobsCompleted: f.completed,
		JobsFailed:    f.failedJobs,
		OrphanResults: f.orphans,
	}
	for _, w := range f.workers {
		v := WorkerView{
			ID: w.id, Name: w.name, Capacity: w.capacity,
			ActiveLeases: len(w.leases), Done: w.done, Failed: w.failed,
			LastSeen: w.lastSeen,
		}
		switch {
		case now.Sub(w.lastSeen) > 3*f.cfg.LeaseTTL:
			v.State = WorkerDead
		case len(w.leases) > 0:
			v.State = WorkerBusy
		default:
			v.State = WorkerIdle
		}
		for id, l := range w.leases {
			v.Running = append(v.Running, RunningLease{
				LeaseID: id, Key: l.job.key,
				Deadline: l.deadline, ElapsedNS: int64(l.elapsed),
			})
		}
		st.Workers = append(st.Workers, v)
	}
	// Deterministic order for tests and human eyes.
	for i := 1; i < len(st.Workers); i++ {
		for j := i; j > 0 && st.Workers[j-1].ID > st.Workers[j].ID; j-- {
			st.Workers[j-1], st.Workers[j] = st.Workers[j], st.Workers[j-1]
		}
	}
	return st
}
