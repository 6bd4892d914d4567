package lab

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bots/internal/obs"
)

// WorkerClient is the worker half of the fleet protocol: it registers
// with a coordinator, pulls leases over HTTP, executes them through a
// local Executor (the same one DirectRunner uses, so a record is
// byte-for-byte what an in-process run would have produced, modulo
// provenance), heartbeats while executing, and ships Records back.
// cmd/botsd wraps it in a process; fleet tests run it in-process
// against an httptest coordinator.
type WorkerClient struct {
	// Coordinator is the lab server's base URL (http://host:port).
	Coordinator string
	// Name labels this worker in records (Host.Worker) and GET /workers.
	Name string
	// Capacity bounds concurrently executing leases (default 1).
	Capacity int
	// Poll is the idle re-lease interval (default 250ms).
	Poll time.Duration
	// Exec runs the leases. Defaults to a fresh Executor.
	Exec *Executor
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives progress lines (botsd points it at
	// stderr; tests leave it nil).
	Logf func(format string, args ...any)
	// RequestTimeout bounds each coordinator request (default 5s), so
	// a stalled wire — injected latency, half-open connection — costs
	// one timeout, not a hung worker.
	RequestTimeout time.Duration
	// WireRetries is how many times a failed coordinator request is
	// retried (default 2; negative disables). Retries cover transport
	// errors and 5xx responses with jittered exponential backoff; 4xx
	// responses are the coordinator speaking clearly and never retried.
	// Every endpoint is safe to repeat: registration worst-case leaves
	// a ghost worker that ages out, and duplicate results land on
	// content-addressed keys.
	WireRetries int
	// StartupRetries is how many times the initial registration is
	// re-attempted (after its own wire retries) when the coordinator
	// is unreachable at startup — botsd racing `botslab -fleet` at
	// boot. Default 0: fail fast, for tests and interactive use.
	StartupRetries int

	// mu guards active, and workerID and ttl, which a re-registration
	// on the lease loop rewrites while the heartbeat goroutine reads
	// them.
	mu       sync.Mutex
	active   map[string]*leaseRun // leaseID → in-flight execution
	workerID string
	ttl      time.Duration

	done    atomic.Int64
	failed  atomic.Int64
	retries atomic.Int64 // wire-level request retries, for /metrics
}

type leaseRun struct {
	start time.Time
	lost  bool // coordinator reported the lease expired under us
}

func (c *WorkerClient) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Retries reports lifetime wire-level request retries.
func (c *WorkerClient) Retries() int64 { return c.retries.Load() }

// RegisterObs exposes the worker's wire counters on an obs registry
// (botsd's -metrics-addr endpoint).
func (c *WorkerClient) RegisterObs(reg *obs.Registry) {
	reg.CounterFunc("bots_lab_http_retries_total",
		"Coordinator requests retried after a transport error or 5xx.",
		func() float64 { return float64(c.retries.Load()) })
	reg.CounterFunc("bots_lab_worker_leases_done_total",
		"Leases executed to a record by this worker.",
		func() float64 { return float64(c.done.Load()) })
	reg.CounterFunc("bots_lab_worker_leases_failed_total",
		"Leases that failed execution on this worker.",
		func() float64 { return float64(c.failed.Load()) })
}

// Run is the daemon loop: register, then lease/execute/report until
// ctx is cancelled. Cancellation (SIGTERM in botsd) drains
// gracefully: no new leases are taken, in-flight executions finish,
// their results are posted with a background context, and the worker
// deregisters before returning.
func (c *WorkerClient) Run(ctx context.Context) error {
	if c.Capacity < 1 {
		c.Capacity = 1
	}
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	if c.Exec == nil {
		c.Exec = NewExecutor()
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.WireRetries == 0 {
		c.WireRetries = 2
	}
	c.active = map[string]*leaseRun{}

	// Startup: the coordinator may not be up yet (botsd and botslab
	// racing out of the same supervisor). Retry registration with
	// backoff up to StartupRetries times; a SIGTERM while waiting is a
	// clean shutdown, not an error.
	for attempt := 0; ; attempt++ {
		err := c.register(ctx)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			c.logf("shutdown requested before registration completed")
			return nil
		}
		if attempt >= c.StartupRetries {
			return err
		}
		delay := backoffDelay(500*time.Millisecond, 10*time.Second, attempt+1)
		c.logf("registration failed (attempt %d of %d): %v; retrying in %s",
			attempt+1, c.StartupRetries+1, err, delay.Round(time.Millisecond))
		if !c.sleep(ctx, delay) {
			c.logf("shutdown requested before registration completed")
			return nil
		}
	}
	c.logf("registered as %s (capacity %d, lease TTL %s)", c.workerID, c.Capacity, c.ttl)

	// Heartbeats renew held leases at TTL/3 — one missed beat leaves
	// slack, two risk the deadline.
	hbCtx, hbCancel := context.WithCancel(context.Background())
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	beat := c.ttl / 3
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				c.heartbeat()
			}
		}
	}()

	sem := make(chan struct{}, c.Capacity)
	var execWG sync.WaitGroup
lease:
	for {
		select {
		case <-ctx.Done():
			break lease
		default:
		}
		// Claim free slots before asking, so the coordinator never
		// grants more than this worker can actually start.
		free := 0
	claim:
		for free < c.Capacity {
			select {
			case sem <- struct{}{}:
				free++
			default:
				break claim
			}
		}
		if free == 0 {
			if !c.sleep(ctx, c.Poll) {
				break lease
			}
			continue
		}
		leases, err := c.lease(ctx, free)
		if err != nil {
			for i := 0; i < free; i++ {
				<-sem
			}
			if ctx.Err() != nil {
				break lease
			}
			c.logf("lease request failed: %v", err)
			if !c.sleep(ctx, c.Poll) {
				break lease
			}
			continue
		}
		for i := len(leases); i < free; i++ {
			<-sem // return unused slots
		}
		if len(leases) == 0 {
			if !c.sleep(ctx, c.Poll) {
				break lease
			}
			continue
		}
		for _, l := range leases {
			l := l
			c.mu.Lock()
			c.active[l.ID] = &leaseRun{start: time.Now()}
			c.mu.Unlock()
			execWG.Add(1)
			go func() {
				defer execWG.Done()
				defer func() { <-sem }()
				c.execute(l)
			}()
		}
	}

	c.logf("draining: waiting for %d in-flight lease(s)", len(sem))
	execWG.Wait()
	hbCancel()
	hbWG.Wait()
	c.deregister()
	c.logf("drained and deregistered (%d done, %d failed)", c.done.Load(), c.failed.Load())
	return nil
}

// Done reports how many leases this worker has executed to a record.
func (c *WorkerClient) Done() int64 { return c.done.Load() }

// execute runs one lease and reports the outcome. Results are posted
// with a background context: a drain (SIGTERM) must still deliver
// work already paid for.
func (c *WorkerClient) execute(l Lease) {
	c.logf("lease %s: %s/%s %s t=%d",
		l.ID, l.Spec.Bench, l.Spec.Version, l.Spec.Class, l.Spec.Threads)
	start := time.Now()
	rec, err := c.Exec.Execute(l.Spec)
	c.mu.Lock()
	run := c.active[l.ID]
	delete(c.active, l.ID)
	c.mu.Unlock()
	if run != nil && run.lost {
		c.logf("lease %s: finished after coordinator gave up on it; result will land as an orphan", l.ID)
	}

	var errMsg string
	if err != nil {
		c.failed.Add(1)
		errMsg = err.Error()
		c.logf("lease %s: failed after %s: %v", l.ID, time.Since(start).Round(time.Millisecond), err)
	} else {
		rec.Host.Worker = c.Name
		c.done.Add(1)
		c.logf("lease %s: done in %s (verified=%v)", l.ID, time.Since(start).Round(time.Millisecond), rec.Verified)
	}
	body := map[string]any{"lease_id": l.ID, "record": rec, "error": errMsg}
	if err := c.post(context.Background(), "/results", body, nil); err != nil {
		c.logf("lease %s: posting result: %v", l.ID, err)
	}
}

func (c *WorkerClient) register(ctx context.Context) error {
	var resp struct {
		WorkerID   string `json:"worker_id"`
		LeaseTTLNS int64  `json:"lease_ttl_ns"`
	}
	err := c.post(ctx, "/workers/register", map[string]any{"name": c.Name, "capacity": c.Capacity}, &resp)
	if err != nil {
		return fmt.Errorf("lab: registering with %s: %w", c.Coordinator, err)
	}
	ttl := time.Duration(resp.LeaseTTLNS)
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	c.mu.Lock()
	c.workerID, c.ttl = resp.WorkerID, ttl
	c.mu.Unlock()
	return nil
}

func (c *WorkerClient) deregister() {
	c.post(context.Background(), "/workers/deregister", map[string]any{"worker_id": c.workerID}, nil)
}

func (c *WorkerClient) lease(ctx context.Context, max int) ([]Lease, error) {
	var resp struct {
		Leases []Lease `json:"leases"`
	}
	err := c.post(ctx, "/leases", map[string]any{"worker_id": c.workerID, "max": max}, &resp)
	if isUnknownWorker(err) {
		// Coordinator restarted or declared us dead: re-register and
		// resume with the fresh identity.
		c.logf("coordinator no longer knows us; re-registering")
		if rerr := c.register(ctx); rerr != nil {
			return nil, rerr
		}
		return nil, nil
	}
	return resp.Leases, err
}

// heartbeat renews every in-flight lease, reporting elapsed time as
// progress. A lease the coordinator reports lost has expired under us
// (our fault or its clock); the execution continues — its record
// still lands in the store as an orphan — but we log the downgrade.
func (c *WorkerClient) heartbeat() {
	c.mu.Lock()
	workerID := c.workerID
	progress := make([]HeartbeatProgress, 0, len(c.active))
	for id, run := range c.active {
		progress = append(progress, HeartbeatProgress{ID: id, ElapsedNS: time.Since(run.start).Nanoseconds()})
	}
	c.mu.Unlock()
	var resp struct {
		Lost []string `json:"lost"`
	}
	err := c.post(context.Background(), "/heartbeats", map[string]any{"worker_id": workerID, "leases": progress}, &resp)
	if err != nil {
		c.logf("heartbeat failed: %v", err)
		return
	}
	c.mu.Lock()
	for _, id := range resp.Lost {
		if run := c.active[id]; run != nil && !run.lost {
			run.lost = true
			c.logf("lease %s expired under us; finishing as orphan", id)
		}
	}
	c.mu.Unlock()
}

func (c *WorkerClient) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// httpStatusError carries a non-2xx response for isUnknownWorker.
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("lab: coordinator returned %d: %s", e.status, e.body)
}

func isUnknownWorker(err error) bool {
	se, ok := err.(*httpStatusError)
	return ok && se.status == http.StatusNotFound
}

// post sends one coordinator request with a per-attempt timeout and
// bounded retries. Transport errors and 5xx responses retry with the
// shared jittered backoff; a 4xx is the coordinator speaking clearly
// (unknown worker, bad request) and returns immediately. ctx
// cancellation stops the retry loop between attempts.
func (c *WorkerClient) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	attempts := c.WireRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			if !c.sleep(ctx, backoffDelay(100*time.Millisecond, 2*time.Second, attempt-1)) {
				return last
			}
		}
		err := c.postOnce(ctx, path, buf, out)
		if err == nil {
			return nil
		}
		if se, ok := err.(*httpStatusError); ok && se.status < 500 {
			return err // 4xx: retrying cannot change the answer
		}
		if ctx.Err() != nil {
			return err
		}
		last = err
	}
	return fmt.Errorf("%w (after %d attempts)", last, attempts)
}

func (c *WorkerClient) postOnce(ctx context.Context, path string, buf []byte, out any) error {
	timeout := c.RequestTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, c.Coordinator+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode/100 != 2 {
		return &httpStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}
