package lab

import (
	"context"
	"sync"
	"sync/atomic"
)

// Runner turns a JobSpec into a Record. It is the seam between the
// report layer (which asks for experiment cells) and the lab (which
// decides whether — and, since the fleet, *where* — a cell actually
// executes): a CachedRunner answers from the store, a DirectRunner
// measures in-process, a RemoteRunner ships the cell to a registered
// worker daemon, and tests substitute fakes.
type Runner interface {
	Run(spec JobSpec) (*Record, error)
}

// ContextRunner is the optional cancellation-aware extension of
// Runner. The dispatcher runs jobs through RunWithContext, so a
// runner implementing this sees sweep cancellation: a RemoteRunner
// stops waiting on the fleet, a DirectRunner declines to start a
// queued cell. Runners that don't implement it simply run to
// completion (a recording run is never interrupted mid-measurement —
// Records are all-or-nothing).
type ContextRunner interface {
	Runner
	RunContext(ctx context.Context, spec JobSpec) (*Record, error)
}

// RunWithContext runs the spec on r, threading ctx through when the
// runner supports it. For a plain Runner, cancellation is only
// honored before the run starts.
func RunWithContext(ctx context.Context, r Runner, spec JobSpec) (*Record, error) {
	if cr, ok := r.(ContextRunner); ok {
		return cr.RunContext(ctx, spec)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.Run(spec)
}

// DirectRunner executes every job through an Executor, with no
// caching beyond the executor's sequential-baseline cache.
type DirectRunner struct {
	Exec *Executor
}

// NewDirectRunner returns a DirectRunner with a fresh Executor.
func NewDirectRunner() *DirectRunner { return &DirectRunner{Exec: NewExecutor()} }

// Run implements Runner.
func (d *DirectRunner) Run(spec JobSpec) (*Record, error) { return d.Exec.Execute(spec) }

// RunContext implements ContextRunner: a cancelled cell never starts.
func (d *DirectRunner) RunContext(ctx context.Context, spec JobSpec) (*Record, error) {
	return d.Exec.ExecuteContext(ctx, spec)
}

// RemoteRunner executes jobs on the fleet: Run enqueues the cell with
// the coordinator and blocks until a worker daemon leases, executes,
// and ships its Record back (or the fleet exhausts the job's lease
// attempts). Stacked under a CachedRunner it gives `botslab` fleet
// sweeps the same contract local ones have: hits short-circuit from
// the shared store, only misses travel.
type RemoteRunner struct {
	Fleet *Fleet
}

// NewRemoteRunner returns a RemoteRunner dispatching through fleet.
func NewRemoteRunner(fleet *Fleet) *RemoteRunner { return &RemoteRunner{Fleet: fleet} }

// Run implements Runner.
func (r *RemoteRunner) Run(spec JobSpec) (*Record, error) {
	return r.RunContext(context.Background(), spec)
}

// RunContext implements ContextRunner: on cancellation the job is
// abandoned — dropped from the fleet queue if still pending, left to
// finish as a store-bound orphan if already leased.
func (r *RemoteRunner) RunContext(ctx context.Context, spec JobSpec) (*Record, error) {
	return r.Fleet.Enqueue(spec).Wait(ctx)
}

// CachedRunner consults a Store before delegating to the next
// Runner, and persists what the next runner produces. Concurrent
// requests for the same key are coalesced into a single execution.
type CachedRunner struct {
	Store *Store
	Next  Runner

	hits, misses atomic.Int64

	mu       sync.Mutex
	inflight map[string]*inflightJob
}

type inflightJob struct {
	done chan struct{}
	rec  *Record
	err  error
}

// NewCachedRunner returns a CachedRunner over store, executing
// misses on next.
func NewCachedRunner(store *Store, next Runner) *CachedRunner {
	return &CachedRunner{Store: store, Next: next, inflight: map[string]*inflightJob{}}
}

// Hits and Misses report cache behaviour since construction.
func (c *CachedRunner) Hits() int64   { return c.hits.Load() }
func (c *CachedRunner) Misses() int64 { return c.misses.Load() }

// Run implements Runner: store hit → cached record; miss → execute
// once (coalescing concurrent callers), persist, return.
func (c *CachedRunner) Run(spec JobSpec) (*Record, error) {
	return c.RunContext(context.Background(), spec)
}

// RunContext implements ContextRunner. Cancellation propagates both
// to the executing side (via the next runner) and to coalesced
// waiters: a caller whose ctx dies stops waiting for the in-flight
// execution it piggybacked on. Note the executing caller's ctx covers
// everyone coalesced onto it; a waiter that outlives a cancelled
// executor sees the cancellation error and may simply retry.
func (c *CachedRunner) RunContext(ctx context.Context, spec JobSpec) (*Record, error) {
	spec = spec.Normalize()
	return c.runKeyed(ctx, spec, spec.key())
}

// runKeyed is RunContext for a normalized spec whose key the caller
// already holds (the dispatcher derives it once per submission).
func (c *CachedRunner) runKeyed(ctx context.Context, spec JobSpec, key string) (*Record, error) {
	if r, ok := c.Store.Get(key); ok {
		c.hits.Add(1)
		return r, nil
	}

	c.mu.Lock()
	if job, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-job.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if job.err == nil {
			c.hits.Add(1)
		}
		return job.rec, job.err
	}
	job := &inflightJob{done: make(chan struct{})}
	c.inflight[key] = job
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(job.done)
	}()

	// Re-check under inflight ownership: the store may have been
	// populated between the first Get and acquiring the slot.
	if r, ok := c.Store.Get(key); ok {
		c.hits.Add(1)
		job.rec = r
		return r, nil
	}
	c.misses.Add(1)
	r, err := RunWithContext(ctx, c.Next, spec)
	if err != nil {
		job.err = err
		return nil, err
	}
	if err := c.Store.Put(r); err != nil {
		job.err = err
		return nil, err
	}
	job.rec = r
	return r, nil
}
