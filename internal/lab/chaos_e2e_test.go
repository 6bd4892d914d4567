package lab_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	_ "bots/internal/apps/all"
	"bots/internal/chaos"
	"bots/internal/lab"
)

// End-to-end chaos experiments (DESIGN.md §14): the full fleet stack
// — coordinator HTTP server, WorkerClient daemons, store, journal —
// driven through the internal/chaos fault injector. Each test is one
// named experiment from the fault model: healed partition, slow
// network, clock skew, coordinator crash. All run under -race in CI.

// startChaosWorker is startWorker with the worker's wire routed
// through a chaos transport.
func startChaosWorker(t *testing.T, base, name string, capacity int, inj *chaos.Injector) *lab.WorkerClient {
	t.Helper()
	w := &lab.WorkerClient{
		Coordinator:    base,
		Name:           name,
		Capacity:       capacity,
		Poll:           5 * time.Millisecond,
		Logf:           t.Logf,
		RequestTimeout: 3 * time.Second,
		WireRetries:    4,
		StartupRetries: 10,
	}
	if inj != nil {
		w.Client = &http.Client{Transport: inj.Transport(nil)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return w
}

// sixCellManifest expands to fib × {manual-tied, if-tied} × {1, 2, 4}.
const sixCellManifest = `{"name":"chaos","benches":["fib"],"versions":["manual-tied","if-tied"],
	"classes":["test"],"threads":[1,2,4]}`

func allVerified(t *testing.T, url string, want int) {
	t.Helper()
	var all []lab.Record
	getJSON(t, url+"/results", &all)
	if len(all) != want {
		t.Fatalf("GET /results returned %d records, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, r := range all {
		if !r.Verified {
			t.Errorf("unverified record %s (%s/%s t=%d)", r.Key, r.Spec.Bench, r.Spec.Version, r.Spec.Threads)
		}
		if seen[r.Key] {
			t.Errorf("duplicate key %s in results", r.Key)
		}
		seen[r.Key] = true
	}
}

// TestChaosPartitionHealsAndConverges cuts the worker↔coordinator
// wire both ways mid-sweep, long enough for live leases to expire,
// then heals it. The sweep must converge with every cell verified:
// the dispatcher's retry of expired leases plus idempotent result
// posting absorb the outage.
func TestChaosPartitionHealsAndConverges(t *testing.T) {
	ts, fleet, _ := newFleetServer(t, lab.FleetConfig{LeaseTTL: 500 * time.Millisecond}, 9)
	inj := chaos.New(chaos.Config{Seed: 11})
	startChaosWorker(t, ts.URL, "alpha", 2, inj)
	startChaosWorker(t, ts.URL, "beta", 2, inj)

	submitted := postSweep(t, ts, sixCellManifest)
	if submitted.Total != 6 {
		t.Fatalf("sweep expanded to %d cells, want 6", submitted.Total)
	}
	// Let the sweep get going, then cut the cable for 3 lease TTLs.
	waitCond(t, 30*time.Second, func() bool { return fleet.Status().LeasesGranted >= 1 })
	inj.SetPartition(chaos.PartitionTwoWay)
	t.Log("two-way partition up")
	time.Sleep(1500 * time.Millisecond)
	inj.Heal()
	t.Log("partition healed")

	st := waitSweepDone(t, ts, submitted.ID, 120*time.Second)
	if st.Done != 6 || st.Failed != 0 {
		t.Fatalf("sweep after healed partition: %+v", st)
	}
	allVerified(t, ts.URL, 6)
	if got := inj.Stats().Partitioned; got == 0 {
		t.Fatal("partition never actually blocked a request")
	}
}

// TestChaosSlowNetworkSweepCompletes runs the wire at 500ms ± 150ms
// per request. Heartbeats, leases, and result posts all eat the
// latency; the sweep still completes with zero failed cells because
// every timeout (lease TTL, request timeout) is sized in TTL-relative
// terms rather than assuming a fast LAN.
func TestChaosSlowNetworkSweepCompletes(t *testing.T) {
	ts, _, _ := newFleetServer(t, lab.FleetConfig{LeaseTTL: 5 * time.Second}, 5)
	inj := chaos.New(chaos.Config{Seed: 7, Latency: 500 * time.Millisecond, Jitter: 150 * time.Millisecond})
	startChaosWorker(t, ts.URL, "slow-alpha", 2, inj)
	startChaosWorker(t, ts.URL, "slow-beta", 2, inj)

	submitted := postSweep(t, ts, sixCellManifest)
	st := waitSweepDone(t, ts, submitted.ID, 120*time.Second)
	if st.Done != 6 || st.Failed != 0 {
		t.Fatalf("sweep on slow network: %+v", st)
	}
	allVerified(t, ts.URL, 6)
	if inj.Stats().Delayed == 0 {
		t.Fatal("latency injection never fired")
	}
}

// TestChaosDropsAndRetries runs the wire at a 25% drop rate — both
// request-side (the coordinator never sees it) and response-side (it
// does, the worker doesn't hear back). Bounded wire retries must
// absorb the drops, every retried result post must land idempotently,
// and the retry counter behind bots_lab_http_retries_total must show
// the wire actually fought for it.
func TestChaosDropsAndRetries(t *testing.T) {
	ts, _, _ := newFleetServer(t, lab.FleetConfig{LeaseTTL: 2 * time.Second}, 9)
	inj := chaos.New(chaos.Config{Seed: 23, DropRate: 0.25})
	alpha := startChaosWorker(t, ts.URL, "drop-alpha", 2, inj)
	beta := startChaosWorker(t, ts.URL, "drop-beta", 2, inj)

	submitted := postSweep(t, ts, sixCellManifest)
	st := waitSweepDone(t, ts, submitted.ID, 120*time.Second)
	if st.Done != 6 || st.Failed != 0 {
		t.Fatalf("sweep on lossy network: %+v", st)
	}
	allVerified(t, ts.URL, 6)
	stats := inj.Stats()
	if stats.DroppedRequests+stats.DroppedResponses == 0 {
		t.Fatal("drop injection never fired")
	}
	if alpha.Retries()+beta.Retries() == 0 {
		t.Fatal("workers absorbed drops without a single counted retry")
	}
	t.Logf("drops: %d request-side, %d response-side; worker retries: %d",
		stats.DroppedRequests, stats.DroppedResponses, alpha.Retries()+beta.Retries())
}

// TestChaosClockSkewLeaseCorrectness runs the coordinator 2 minutes
// behind the workers' clocks, dwarfing the 2s lease TTL. Only the
// coordinator measures a lease's lifetime, on its own clock, and the
// wire carries no deadline, so the skew must cause zero spurious
// expiries: every cell is done on its first attempt.
func TestChaosClockSkewLeaseCorrectness(t *testing.T) {
	ts, fleet, _ := newFleetServer(t, lab.FleetConfig{
		LeaseTTL:   2 * time.Second,
		Clock:      chaos.OffsetClock(nil, -2*time.Minute),
		ExpiryTick: 50 * time.Millisecond,
	}, 3)
	startChaosWorker(t, ts.URL, "skew-alpha", 2, nil)
	startChaosWorker(t, ts.URL, "skew-beta", 2, nil)

	submitted := postSweep(t, ts, sixCellManifest)
	st := waitSweepDone(t, ts, submitted.ID, 120*time.Second)
	if st.Done != 6 || st.Failed != 0 {
		t.Fatalf("sweep under ±2min clock skew: %+v", st)
	}
	allVerified(t, ts.URL, 6)
	fst := fleet.Status()
	if fst.LeasesExpired != 0 {
		t.Fatalf("clock skew expired %d leases, want 0 (TTLs are relative)", fst.LeasesExpired)
	}
	for _, j := range st.Jobs {
		if j.Attempts != 1 {
			t.Fatalf("clock skew cost cell %s %d attempts, want 1", j.Key, j.Attempts)
		}
	}
}

// coordinator is one incarnation of the `botslab -fleet` stack,
// assembled by hand so a test can kill and restart it on the same
// address with the same store and journal files.
type coordinator struct {
	store   *lab.Store
	journal *lab.Journal
	fleet   *lab.Fleet
	disp    *lab.Dispatcher
	http    *http.Server
	addr    string
}

func startCoordinator(t *testing.T, addr, storePath, journalPath string) (*coordinator, *lab.Recovery) {
	t.Helper()
	store, err := lab.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	journal, rec, err := lab.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	fleet := lab.NewFleet(lab.FleetConfig{
		LeaseTTL: 2 * time.Second,
		Store:    store,
		Journal:  journal,
	})
	disp := lab.NewDispatcher(lab.NewCachedRunner(store, lab.NewRemoteRunner(fleet)), 32, 9)
	disp.RetryBase, disp.RetryCap = 10*time.Millisecond, 50*time.Millisecond
	disp.Journal = journal
	srv := &lab.Server{Disp: disp, Store: store, Fleet: fleet, PollInterval: 10 * time.Millisecond}

	// The restarted incarnation rebinds the address the workers
	// already hold; retry briefly while the dead listener's socket is
	// released.
	var ln net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &coordinator{store: store, journal: journal, fleet: fleet, disp: disp, http: hs, addr: ln.Addr().String()}, rec
}

// crash simulates a kill -9 as closely as an in-process test can: the
// HTTP server and journal are severed first (no more client traffic,
// no more journal appends), then the incarnation's in-memory state is
// torn down. Nothing is flushed gracefully on its behalf: with the
// journal already closed, the dispatcher's Close cancels the sweep
// only in memory, unsticking pool goroutines whose fleet tickets will
// never resolve.
func (c *coordinator) crash(t *testing.T) {
	t.Helper()
	c.http.Close()
	c.journal.Close()
	c.fleet.Close()
	c.disp.Close()
	c.store.Close()
}

// TestChaosCoordinatorCrashRestart kills the coordinator in the
// middle of a 24-cell fleet sweep and restarts it on the same address
// with the same store and journal. The journal replay must recover
// the sweep, resubmit exactly the cells that never finished, and the
// surviving workers must re-adopt the new incarnation through the
// normal unknown-worker re-registration path. No cell may be lost and
// the store must end with exactly one record per key.
func TestChaosCoordinatorCrashRestart(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "lab.jsonl")
	jPath := filepath.Join(dir, "fleet.journal")

	a, recA := startCoordinator(t, "127.0.0.1:0", storePath, jPath)
	if recA.Events != 0 || len(recA.Sweeps) != 0 {
		t.Fatalf("fresh journal recovered %+v", recA)
	}
	base := "http://" + a.addr

	startChaosWorker(t, base, "alpha", 2, nil)
	startChaosWorker(t, base, "beta", 2, nil)

	manifest := `{"name":"crash-sweep","benches":["fib","nqueens"],"versions":["manual-tied","if-tied"],
		"classes":["test"],"threads":[1,2,4],"cutoff_depths":[3,5]}`
	resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	var submitted lab.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if submitted.Total != 24 {
		t.Fatalf("sweep expanded to %d cells, want 24", submitted.Total)
	}

	// Crash once a third of the sweep has records on disk.
	waitCond(t, 60*time.Second, func() bool { return a.store.Len() >= 8 })
	doneBefore := a.store.Len()
	t.Logf("crashing coordinator with %d/24 records stored", doneBefore)
	a.crash(t)

	// Incarnation B: same files, same address.
	b, rec := startCoordinator(t, a.addr, storePath, jPath)
	t.Cleanup(func() {
		b.http.Close()
		b.fleet.Close()
		b.store.Close()
		b.journal.Close()
	})
	if rec.Events == 0 {
		t.Fatal("journal replayed zero events after a mid-sweep crash")
	}
	if rec.Grants == 0 {
		t.Fatalf("journal saw no lease grants before the crash: %+v", rec)
	}
	if len(rec.Sweeps) != 1 {
		t.Fatalf("recovered %d sweeps, want 1", len(rec.Sweeps))
	}
	t.Logf("journal replay: %d events (%d grants, %d renewals, %d completions)",
		rec.Events, rec.Grants, rec.Renewals, rec.Completions)

	sweeps, cells, err := b.disp.Resume(rec)
	if err != nil {
		t.Fatal(err)
	}
	if sweeps != 1 || cells == 0 || cells > 24 {
		t.Fatalf("resumed %d sweeps / %d cells", sweeps, cells)
	}
	terminal := len(rec.Sweeps[0].Terminal)
	if cells < 24-terminal {
		t.Fatalf("resumed %d cells with %d terminal in journal, want >= %d", cells, terminal, 24-terminal)
	}
	t.Logf("resumed %d cells (%d were journaled terminal)", cells, terminal)

	resumed := b.disp.Sweeps()
	if len(resumed) != 1 {
		t.Fatalf("dispatcher B has %d sweeps, want 1", len(resumed))
	}
	select {
	case <-resumed[0].Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("resumed sweep never finished: %+v", resumed[0].Status())
	}
	st := resumed[0].Status()
	if st.Done != cells || st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("resumed sweep finished badly: %+v", st)
	}

	// Exactly-once-per-key: all 24 cells present, verified, no
	// duplicates, nothing lost across the crash.
	allVerified(t, "http://"+a.addr, 24)
	if b.store.Len() != 24 {
		t.Fatalf("store has %d keys, want 24", b.store.Len())
	}
}
