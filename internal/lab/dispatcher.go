package lab

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// JobStatus is the lifecycle state of one job in a sweep.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// JobView is the externally visible state of one job (what the
// status API returns). Between a failed attempt and its retry the job
// sits in `queued` with Attempts, the last Error, and NextAttempt
// (the end of its backoff window) all populated.
type JobView struct {
	Key         string     `json:"key"`
	Spec        JobSpec    `json:"spec"`
	Status      JobStatus  `json:"status"`
	Attempts    int        `json:"attempts"`
	Error       string     `json:"error,omitempty"`
	NextAttempt *time.Time `json:"next_attempt,omitempty"`
}

// Sweep states reported by SweepStatus.State.
const (
	SweepRunning    = "running"
	SweepDone       = "done"
	SweepCancelling = "cancelling" // cancel requested, leased/running cells finishing
	SweepCancelled  = "cancelled"
)

// SweepStatus is a point-in-time snapshot of a sweep. A retired sweep
// (see retainTerminal) reports its final counts with Retired set and
// no Jobs.
type SweepStatus struct {
	ID      string    `json:"id"`
	Name    string    `json:"name,omitempty"`
	State   string    `json:"state"`
	Created time.Time `json:"created"`
	// Instances is the manifest's requested worker count (0 = no
	// per-sweep cap); the dispatcher degrades gracefully when the
	// pool or fleet offers less.
	Instances int       `json:"instances,omitempty"`
	Total     int       `json:"total"`
	Queued    int       `json:"queued"`
	Running   int       `json:"running"`
	Done      int       `json:"done"`
	Failed    int       `json:"failed"`
	Cancelled int       `json:"cancelled"`
	Retired   bool      `json:"retired,omitempty"`
	Jobs      []JobView `json:"jobs,omitempty"`
}

// Finished reports whether every job has reached a terminal state.
func (s SweepStatus) Finished() bool { return s.Done+s.Failed+s.Cancelled == s.Total }

// ProgressEvent is delivered to the dispatcher's progress callback on
// every job state transition.
type ProgressEvent struct {
	SweepID string  `json:"sweep_id"`
	Job     JobView `json:"job"`
}

type dispJob struct {
	sweep *Sweep
	idx   int
}

// Sweep is one submitted manifest expansion being worked through the
// pool.
type Sweep struct {
	id        string
	name      string
	created   time.Time
	journalID string // "" when the dispatcher has no journal

	// ctx is cancelled by Dispatcher.Cancel; context-aware runners
	// (RemoteRunner waiting on the fleet) abort through it.
	ctx    context.Context
	cancel context.CancelFunc

	// instances and inflight are guarded by the dispatcher's mutex
	// (they steer queue pops, not status reads).
	instances int
	inflight  int

	mu        sync.Mutex
	jobs      []JobView // nil once retired
	remaining int
	cancelled bool
	retired   bool
	final     tally // the retired sweep's counts
	done      chan struct{}
}

// tally is a sweep's jobs counted by state.
type tally struct{ total, queued, running, done, failed, cancelled int }

// ID returns the sweep's dispatcher-assigned identifier.
func (s *Sweep) ID() string { return s.id }

// Done returns a channel closed when every job has finished.
func (s *Sweep) Done() <-chan struct{} { return s.done }

// Wait blocks until the sweep finishes and returns its final status:
// the retired summary, without jobs, once the sweep has retired.
func (s *Sweep) Wait() SweepStatus {
	<-s.done
	return s.Status()
}

func (s *Sweep) isCancelled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cancelled
}

// tallyLocked counts the sweep's jobs by state without copying them;
// a retired sweep answers from its final counts. s.mu must be held.
func (s *Sweep) tallyLocked() tally {
	if s.retired {
		return s.final
	}
	t := tally{total: len(s.jobs)}
	for i := range s.jobs {
		switch s.jobs[i].Status {
		case JobQueued:
			t.queued++
		case JobRunning:
			t.running++
		case JobDone:
			t.done++
		case JobFailed:
			t.failed++
		case JobCancelled:
			t.cancelled++
		}
	}
	return t
}

// Status returns a snapshot of the sweep.
func (s *Sweep) Status() SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tallyLocked()
	st := SweepStatus{
		ID:        s.id,
		Name:      s.name,
		Created:   s.created,
		Instances: s.instances,
		Total:     t.total,
		Queued:    t.queued,
		Running:   t.running,
		Done:      t.done,
		Failed:    t.failed,
		Cancelled: t.cancelled,
		Retired:   s.retired,
	}
	if !s.retired {
		st.Jobs = append([]JobView(nil), s.jobs...)
	}
	finished := st.Finished()
	switch {
	case s.cancelled && finished:
		st.State = SweepCancelled
	case s.cancelled:
		st.State = SweepCancelling
	case finished:
		st.State = SweepDone
	default:
		st.State = SweepRunning
	}
	return st
}

// Dispatcher runs sweep jobs on a bounded worker pool with
// per-job status, bounded retry with jittered exponential backoff,
// per-sweep instance caps, cancellation, and progress callbacks.
type Dispatcher struct {
	runner  Runner
	retries int

	// RetryBase and RetryCap shape the backoff between attempts of a
	// failing job: attempt n waits RetryBase*2^(n-1), jittered ±25%,
	// capped at RetryCap (defaults 250ms / 10s). Set before the first
	// Submit.
	RetryBase time.Duration
	RetryCap  time.Duration

	// OnProgress, when non-nil, is called (from worker goroutines,
	// without internal locks held) on every job state transition.
	OnProgress func(ProgressEvent)

	// Journal, when non-nil, receives sweep submissions, cancellations,
	// and terminal cell outcomes so a crashed coordinator can recover
	// its unfinished work (Resume). Set before the first Submit.
	Journal *Journal

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []dispJob
	sweeps map[string]*Sweep
	order  []string
	nextID int
	closed bool
	wg     sync.WaitGroup

	// unretired holds, in no order, the sweeps that still keep their
	// job views: every unfinished sweep plus terminal, the newest
	// retainTerminal finished ones, oldest first. retired sums the
	// final counts of every sweep retired so far.
	unretired []*Sweep
	terminal  []*Sweep
	retired   Counts
}

// retainTerminal is how many finished sweeps keep their per-job views.
// Past it the oldest finished sweep retires to a fixed-size summary
// (its final counts, no jobs), so a long-lived dispatcher holds
// O(retainTerminal × sweep size) of views instead of every view it
// ever made.
const retainTerminal = 64

// NewDispatcher starts a pool of `workers` goroutines executing jobs
// on runner. Each failed job is retried up to `retries` more times
// before being marked failed.
func NewDispatcher(runner Runner, workers, retries int) *Dispatcher {
	if workers < 1 {
		workers = 1
	}
	if retries < 0 {
		retries = 0
	}
	d := &Dispatcher{
		runner:    runner,
		retries:   retries,
		RetryBase: 250 * time.Millisecond,
		RetryCap:  10 * time.Second,
		sweeps:    map[string]*Sweep{},
	}
	d.cond = sync.NewCond(&d.mu)
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d
}

// backoffDelay is the shared retry schedule of the dispatcher and the
// fleet: base*2^(attempt-1) capped at max, jittered ±25% so a burst
// of same-cause failures doesn't re-arrive in lockstep.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if max <= 0 {
		max = 10 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// ±25% jitter; rand's global source is fine — this is schedule
	// noise, not an experiment input (those take seeded RNGs).
	j := d / 4
	if j > 0 {
		d += time.Duration(rand.Int63n(int64(2*j))) - j
	}
	return d
}

// Submit expands the manifest and enqueues every cell. It returns
// the tracking Sweep immediately; jobs run in the background.
func (d *Dispatcher) Submit(spec SweepSpec) (*Sweep, error) {
	if spec.Instances < 0 {
		return nil, fmt.Errorf("lab: sweep %q has negative instances %d", spec.Name, spec.Instances)
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return d.submit(spec.Name, spec.Instances, jobs, "")
}

// SubmitJobs enqueues an explicit job list as one sweep with no
// per-sweep instance cap.
func (d *Dispatcher) SubmitJobs(name string, jobs []JobSpec) (*Sweep, error) {
	return d.submit(name, 0, jobs, "")
}

// SubmitJobsN is SubmitJobs with a testground-style instances cap: at
// most `instances` cells of the sweep run concurrently (0 = no cap).
// The cap is a *request* — a smaller pool or fleet simply yields less
// parallelism, never an error.
func (d *Dispatcher) SubmitJobsN(name string, instances int, jobs []JobSpec) (*Sweep, error) {
	return d.submit(name, instances, jobs, "")
}

// Resume resubmits the unfinished sweeps of a journal recovery. Each
// recovered sweep keeps its journal ID — its new terminal events
// append under the identity the compacted journal already re-wrote —
// and only cells that never reached `done` are resubmitted; finished
// cells resolve from the result store anyway. It returns how many
// sweeps and cells went back into the queue.
func (d *Dispatcher) Resume(rec *Recovery) (sweeps, cells int, err error) {
	if rec == nil {
		return 0, 0, nil
	}
	for _, sw := range rec.Sweeps {
		pending := sw.Pending()
		if len(pending) == 0 {
			continue
		}
		if _, err := d.submit(sw.Name, sw.Instances, pending, sw.JournalID); err != nil {
			return sweeps, cells, fmt.Errorf("lab: resuming sweep %s (%q): %w", sw.JournalID, sw.Name, err)
		}
		sweeps++
		cells += len(pending)
	}
	return sweeps, cells, nil
}

func (d *Dispatcher) submit(name string, instances int, jobs []JobSpec, journalID string) (*Sweep, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("lab: sweep %q expands to zero jobs", name)
	}
	if instances < 0 {
		return nil, fmt.Errorf("lab: sweep %q has negative instances %d", name, instances)
	}
	// Each cell's key is derived here, once, outside the dispatcher
	// lock: runJob hands it to the cache layer instead of having the
	// runner re-derive it.
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		j = j.Normalize()
		views[i] = JobView{Key: j.key(), Spec: j, Status: JobQueued}
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("lab: dispatcher is closed")
	}
	d.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	sw := &Sweep{
		id:        fmt.Sprintf("s%d", d.nextID),
		name:      name,
		created:   time.Now().UTC(),
		ctx:       ctx,
		cancel:    cancel,
		instances: instances,
		jobs:      views,
		remaining: len(views),
		done:      make(chan struct{}),
	}
	if d.Journal != nil {
		if journalID == "" {
			// New sweep: journal the submission. A recovered sweep
			// (journalID set by Resume) is already in the compacted
			// journal; re-journaling it would double it on replay.
			normalized := make([]JobSpec, len(sw.jobs))
			for i := range sw.jobs {
				normalized[i] = sw.jobs[i].Spec
			}
			journalID = d.Journal.BeginSweep(name, instances, normalized)
		}
		sw.journalID = journalID
	}
	d.sweeps[sw.id] = sw
	d.order = append(d.order, sw.id)
	d.unretired = append(d.unretired, sw)
	d.queue = slices.Grow(d.queue, len(sw.jobs))
	for i := range sw.jobs {
		d.queue = append(d.queue, dispJob{sweep: sw, idx: i})
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return sw, nil
}

// Sweep returns a submitted sweep by ID.
func (d *Dispatcher) Sweep(id string) (*Sweep, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sw, ok := d.sweeps[id]
	return sw, ok
}

// Cancel cancels a sweep: cells still queued (including those inside
// a retry-backoff window) flip to cancelled immediately; cells
// already running — or leased out to fleet workers — finish or expire
// on their own, with context-aware runners (RemoteRunner) abandoning
// their wait so the sweep converges without blocking on remote work.
func (d *Dispatcher) Cancel(id string) (SweepStatus, error) {
	d.mu.Lock()
	sw, ok := d.sweeps[id]
	if !ok {
		d.mu.Unlock()
		return SweepStatus{}, fmt.Errorf("lab: unknown sweep %q", id)
	}
	var dropped []dispJob
	kept := d.queue[:0]
	for _, q := range d.queue {
		if q.sweep == sw {
			dropped = append(dropped, q)
		} else {
			kept = append(kept, q)
		}
	}
	d.queue = kept
	d.mu.Unlock()

	sw.mu.Lock()
	already := sw.cancelled
	sw.cancelled = true
	sw.mu.Unlock()
	if !already {
		sw.cancel() // wake context-aware runners
		d.Journal.SweepCancelled(sw.journalID)
	}
	for _, j := range dropped {
		d.setStatus(j, JobCancelled, sw.jobs[j.idx].Attempts, "sweep cancelled")
	}
	return sw.Status(), nil
}

// Counts is the dispatcher-wide job accounting across every sweep,
// plus whether the dispatcher still accepts submissions — the
// readiness view /healthz and the bots_lab_* gauges expose.
type Counts struct {
	Accepting bool `json:"accepting"`
	Sweeps    int  `json:"sweeps"`
	Queued    int  `json:"queued"`
	Running   int  `json:"running"`
	Done      int  `json:"done"`
	Failed    int  `json:"failed"`
	Cancelled int  `json:"cancelled"`
}

func (c *Counts) add(t tally) {
	c.Queued += t.queued
	c.Running += t.running
	c.Done += t.done
	c.Failed += t.failed
	c.Cancelled += t.cancelled
}

// Counts aggregates the job states of all sweeps: retired sweeps'
// final counts from one running sum, the rest by tallying their jobs.
// Like Sweep.Status it is a point-in-time snapshot, consistent per
// sweep.
func (d *Dispatcher) Counts() Counts {
	d.mu.Lock()
	c := d.retired
	c.Accepting = !d.closed
	c.Sweeps = len(d.order)
	sweeps := slices.Clone(d.unretired)
	d.mu.Unlock()
	// A sweep that retires after the snapshot is not in c yet and
	// tallies from its final counts, so it is counted exactly once.
	for _, sw := range sweeps {
		sw.mu.Lock()
		t := sw.tallyLocked()
		sw.mu.Unlock()
		c.add(t)
	}
	return c
}

// finish records that sw reached a terminal state and retires the
// oldest finished sweep past retainTerminal: its views go, its final
// counts move into d.retired under both locks, so Counts never sees it
// twice or not at all.
func (d *Dispatcher) finish(sw *Sweep) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.terminal = append(d.terminal, sw)
	if len(d.terminal) <= retainTerminal {
		return
	}
	old := d.terminal[0]
	d.terminal[0] = nil
	d.terminal = d.terminal[1:]
	i := slices.Index(d.unretired, old)
	d.unretired[i] = d.unretired[len(d.unretired)-1]
	d.unretired[len(d.unretired)-1] = nil
	d.unretired = d.unretired[:len(d.unretired)-1]
	old.mu.Lock()
	old.final = old.tallyLocked()
	old.retired = true
	old.jobs = nil
	old.mu.Unlock()
	d.retired.add(old.final)
}

// Sweeps returns all sweeps in submission order.
func (d *Dispatcher) Sweeps() []*Sweep {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Sweep, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.sweeps[id])
	}
	return out
}

// Close stops accepting submissions, drains the remaining queue, and
// waits for in-flight jobs to finish. Jobs waiting out a retry
// backoff when Close is called fail at their scheduled time instead
// of re-running.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// worker pops runnable jobs: the oldest queued cell whose sweep is
// under its instances cap. Capped or empty, it parks on the cond var
// until a finishing job or a fresh submission changes the picture.
func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		var job dispJob
		found := false
		for !found {
			for i, q := range d.queue {
				sw := q.sweep
				if sw.instances > 0 && sw.inflight >= sw.instances {
					continue
				}
				job = q
				// The head is the common case (no capped sweep ahead of
				// it) and pops in O(1); the vacated slot is cleared so
				// the backing array keeps no reference to a popped job.
				if i == 0 {
					d.queue[0] = dispJob{}
					d.queue = d.queue[1:]
				} else {
					n := len(d.queue) - 1
					copy(d.queue[i:], d.queue[i+1:])
					d.queue[n] = dispJob{}
					d.queue = d.queue[:n]
				}
				found = true
				break
			}
			if found {
				break
			}
			if d.closed && len(d.queue) == 0 {
				d.mu.Unlock()
				return
			}
			d.cond.Wait()
		}
		job.sweep.inflight++
		d.mu.Unlock()
		d.runJob(job)
		d.mu.Lock()
		job.sweep.inflight--
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// setStatus transitions one job and reports the new view; callbacks
// fire outside the sweep lock.
func (d *Dispatcher) setStatus(j dispJob, status JobStatus, attempts int, errMsg string) {
	d.setStatusAt(j, status, attempts, errMsg, nil)
}

func (d *Dispatcher) setStatusAt(j dispJob, status JobStatus, attempts int, errMsg string, next *time.Time) {
	sw := j.sweep
	sw.mu.Lock()
	v := &sw.jobs[j.idx]
	v.Status = status
	v.Attempts = attempts
	v.Error = errMsg
	v.NextAttempt = next
	view := *v
	finished := false
	terminal := status == JobDone || status == JobFailed || status == JobCancelled
	if terminal {
		sw.remaining--
		finished = sw.remaining == 0
	}
	sw.mu.Unlock()
	if terminal {
		d.Journal.JobDone(sw.journalID, view.Key, status)
	}
	if cb := d.OnProgress; cb != nil {
		cb(ProgressEvent{SweepID: sw.id, Job: view})
	}
	if finished {
		d.finish(sw)
		close(sw.done)
	}
}

// runJob runs one attempt. Failure with attempts left schedules a
// re-enqueue after a jittered exponential backoff — the worker slot
// is freed for the wait, so a flaky cell never blocks the pool.
func (d *Dispatcher) runJob(j dispJob) {
	sw := j.sweep
	sw.mu.Lock()
	attempt := sw.jobs[j.idx].Attempts + 1
	spec, key := sw.jobs[j.idx].Spec, sw.jobs[j.idx].Key
	cancelled := sw.cancelled
	sw.mu.Unlock()
	if cancelled {
		d.setStatus(j, JobCancelled, attempt-1, "sweep cancelled")
		return
	}

	d.setStatus(j, JobRunning, attempt, "")
	var err error
	if c, ok := d.runner.(*CachedRunner); ok {
		_, err = c.runKeyed(sw.ctx, spec, key)
	} else {
		_, err = RunWithContext(sw.ctx, d.runner, spec)
	}
	if err == nil {
		d.setStatus(j, JobDone, attempt, "")
		return
	}
	if sw.isCancelled() || errors.Is(err, context.Canceled) {
		d.setStatus(j, JobCancelled, attempt, "sweep cancelled")
		return
	}
	if attempt >= d.retries+1 {
		d.setStatus(j, JobFailed, attempt, err.Error())
		return
	}
	delay := backoffDelay(d.RetryBase, d.RetryCap, attempt)
	next := time.Now().Add(delay)
	d.setStatusAt(j, JobQueued, attempt, err.Error(), &next)
	time.AfterFunc(delay, func() { d.requeue(j) })
}

// requeue returns a backed-off job to the queue when its timer fires.
// A sweep cancelled or a dispatcher closed in the meantime resolves
// the job terminally instead.
func (d *Dispatcher) requeue(j dispJob) {
	sw := j.sweep
	sw.mu.Lock()
	attempts := sw.jobs[j.idx].Attempts
	lastErr := sw.jobs[j.idx].Error
	cancelled := sw.cancelled
	sw.mu.Unlock()
	if cancelled {
		d.setStatus(j, JobCancelled, attempts, "sweep cancelled")
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.setStatus(j, JobFailed, attempts, lastErr+" (dispatcher closed before retry)")
		return
	}
	d.queue = append(d.queue, j)
	d.cond.Broadcast()
	d.mu.Unlock()
}
