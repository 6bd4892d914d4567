package lab_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	_ "bots/internal/apps/all"
	"bots/internal/lab"
)

// newFleetServer assembles the distributed stack the way
// `botslab -serve -fleet` does: store → RemoteRunner(fleet) under a
// CachedRunner → dispatcher → HTTP handler with the coordinator
// endpoints mounted. Workers then join over HTTP like botsd would.
// retries is the dispatcher's, the one budget of lease attempts per
// cell, and its backoff is kept short (10 ms doubling to 50 ms).
func newFleetServer(t *testing.T, cfg lab.FleetConfig, retries int) (*httptest.Server, *lab.Fleet, *lab.Store) {
	t.Helper()
	store, err := lab.OpenStore(filepath.Join(t.TempDir(), "lab.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	fleet := lab.NewFleet(cfg)
	runner := lab.NewCachedRunner(store, lab.NewRemoteRunner(fleet))
	disp := lab.NewDispatcher(runner, 32, retries)
	disp.RetryBase, disp.RetryCap = 10*time.Millisecond, 50*time.Millisecond
	srv := &lab.Server{
		Disp:         disp,
		Store:        store,
		Fleet:        fleet,
		PollInterval: 10 * time.Millisecond,
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		fleet.Close()
		store.Close()
	})
	return ts, fleet, store
}

// startWorker runs an in-process WorkerClient against the coordinator
// and returns a stop function that drains it (like SIGTERM to botsd).
func startWorker(t *testing.T, ts *httptest.Server, name string, capacity int) (*lab.WorkerClient, func()) {
	t.Helper()
	w := &lab.WorkerClient{
		Coordinator: ts.URL,
		Name:        name,
		Capacity:    capacity,
		Poll:        5 * time.Millisecond,
		Logf:        t.Logf,
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
	stop := func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return w, stop
}

func postSweep(t *testing.T, ts *httptest.Server, manifest string) lab.SweepStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st lab.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps status = %d", resp.StatusCode)
	}
	return st
}

func waitSweepDone(t *testing.T, ts *httptest.Server, id string, within time.Duration) lab.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	var st lab.SweepStatus
	for {
		getJSON(t, ts.URL+"/sweeps/"+id, &st)
		if st.Finished() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetEndToEnd drives a 24-cell sweep through two in-process
// worker daemons over real HTTP: both execute cells (distinct host
// provenance in the records), everything verifies, and a second pass
// of the same manifest is answered entirely from the cache — zero new
// leases, zero new executions.
func TestFleetEndToEnd(t *testing.T) {
	ts, fleet, store := newFleetServer(t, lab.FleetConfig{LeaseTTL: 10 * time.Second}, 1)
	alpha, _ := startWorker(t, ts, "alpha", 2)
	beta, _ := startWorker(t, ts, "beta", 2)

	manifest := `{
		"name": "fleet-grid",
		"benches": ["fib", "nqueens"],
		"versions": ["manual-tied", "if-tied"],
		"classes": ["test"],
		"threads": [1, 2, 4],
		"cutoff_depths": [3, 5]
	}`
	submitted := postSweep(t, ts, manifest)
	if submitted.Total != 24 {
		t.Fatalf("sweep expanded to %d cells, want 24", submitted.Total)
	}
	st := waitSweepDone(t, ts, submitted.ID, 120*time.Second)
	if st.Done != 24 || st.Failed != 0 {
		t.Fatalf("sweep finished badly: %+v", st)
	}

	// Every record is verified and carries fleet provenance; with two
	// greedy workers and 24 cells, both must have executed some.
	var all []lab.Record
	getJSON(t, ts.URL+"/results", &all)
	if len(all) != 24 {
		t.Fatalf("GET /results returned %d records, want 24", len(all))
	}
	byWorker := map[string]int{}
	for _, r := range all {
		if !r.Verified {
			t.Errorf("unverified record %s (%s/%s)", r.Key, r.Spec.Bench, r.Spec.Version)
		}
		byWorker[r.Host.Worker]++
	}
	if byWorker["alpha"] == 0 || byWorker["beta"] == 0 || byWorker["alpha"]+byWorker["beta"] != 24 {
		t.Fatalf("records by worker = %v, want both alpha and beta, nothing else", byWorker)
	}
	var fst lab.FleetStatus
	getJSON(t, ts.URL+"/workers", &fst)
	if len(fst.Workers) != 2 {
		t.Fatalf("GET /workers lists %d workers, want 2", len(fst.Workers))
	}
	for _, w := range fst.Workers {
		if w.Done < 1 {
			t.Errorf("worker %s executed %d jobs, want >= 1", w.Name, w.Done)
		}
	}

	// Second pass: same manifest, answered from the store. No cell
	// reaches the fleet, so the lease counter and both workers' tallies
	// stay exactly where they were.
	grantsBefore := fleet.Status().LeasesGranted
	doneBefore := alpha.Done() + beta.Done()
	again := postSweep(t, ts, manifest)
	st2 := waitSweepDone(t, ts, again.ID, 30*time.Second)
	if st2.Done != 24 || st2.Failed != 0 {
		t.Fatalf("second pass finished badly: %+v", st2)
	}
	if got := fleet.Status().LeasesGranted; got != grantsBefore {
		t.Fatalf("second pass granted %d new leases, want 0", got-grantsBefore)
	}
	if got := alpha.Done() + beta.Done(); got != doneBefore {
		t.Fatalf("second pass executed %d new cells on workers, want 0", got-doneBefore)
	}
	if store.Len() != 24 {
		t.Fatalf("store holds %d records, want 24", store.Len())
	}
}

// TestFleetWorkerDeathRedispatch kills a worker mid-sweep: a "doomed"
// worker leases a cell and goes silent (no heartbeat, no result); its
// lease expires, the dispatcher retries the cell, and the surviving
// worker runs it, so the sweep still converges with no cell lost.
func TestFleetWorkerDeathRedispatch(t *testing.T) {
	ts, fleet, _ := newFleetServer(t, lab.FleetConfig{LeaseTTL: 300 * time.Millisecond}, 4)

	// The doomed worker speaks the Fleet API directly so the test
	// controls exactly what it does: lease one job, then vanish.
	doomed := fleet.Register("doomed", 1)

	manifest := `{"name":"death","benches":["fib"],"versions":["manual-tied"],
		"classes":["test"],"threads":[1,2,4]}`
	submitted := postSweep(t, ts, manifest)
	if submitted.Total != 3 {
		t.Fatalf("sweep expanded to %d cells, want 3", submitted.Total)
	}

	// Wait for the dispatcher to enqueue cells, then grab one and die.
	var grabbed []lab.Lease
	for deadline := time.Now().Add(5 * time.Second); len(grabbed) == 0; {
		var err error
		grabbed, err = fleet.Lease(doomed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("doomed worker holds lease %s for %s; going silent", grabbed[0].ID, grabbed[0].Key)

	startWorker(t, ts, "survivor", 2)
	st := waitSweepDone(t, ts, submitted.ID, 60*time.Second)
	if st.Done != 3 || st.Failed != 0 {
		t.Fatalf("sweep finished badly after worker death: %+v", st)
	}
	fst := fleet.Status()
	if fst.LeasesExpired < 1 {
		t.Fatalf("leases expired = %d, want >= 1", fst.LeasesExpired)
	}
	for _, j := range st.Jobs {
		if j.Key == grabbed[0].Key && j.Attempts != 2 {
			t.Fatalf("the doomed worker's cell took %d attempts, want 2: %+v", j.Attempts, j)
		}
	}
	var all []lab.Record
	getJSON(t, ts.URL+"/results", &all)
	for _, r := range all {
		if !r.Verified {
			t.Errorf("unverified record %s", r.Key)
		}
		if r.Host.Worker != "survivor" {
			t.Errorf("record %s executed by %q, want survivor", r.Key, r.Host.Worker)
		}
	}
}

// TestFleetEndpointsWithoutFleet pins the local-only contract: a
// server without a Fleet answers every coordinator route 503.
func TestFleetEndpointsWithoutFleet(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/workers/register"},
		{http.MethodPost, "/workers/deregister"},
		{http.MethodGet, "/workers"},
		{http.MethodPost, "/leases"},
		{http.MethodPost, "/heartbeats"},
		{http.MethodPost, "/results"},
	} {
		req, _ := http.NewRequest(route.method, ts.URL+route.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s status = %d, want 503", route.method, route.path, resp.StatusCode)
		}
	}
}

// TestFleetWireProtocol round-trips the raw coordinator wire format —
// what a non-Go worker would speak.
func TestFleetWireProtocol(t *testing.T) {
	ts, fleet, _ := newFleetServer(t, lab.FleetConfig{LeaseTTL: 10 * time.Second}, 1)

	post := func(path, body string, out any) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decoding %s response: %v", path, err)
			}
		}
		return resp
	}

	var reg struct {
		WorkerID   string `json:"worker_id"`
		LeaseTTLNS int64  `json:"lease_ttl_ns"`
	}
	post("/workers/register", `{"name":"wire","capacity":1}`, &reg)
	if reg.WorkerID == "" || reg.LeaseTTLNS != (10*time.Second).Nanoseconds() {
		t.Fatalf("registration = %+v", reg)
	}
	// Unregistered names 404, prompting a worker re-register.
	if resp := post("/leases", `{"worker_id":"w999","max":1}`, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown worker lease status = %d, want 404", resp.StatusCode)
	}

	ticket := fleet.Enqueue(testSpec("fib", 2))
	var leased struct {
		Leases []lab.Lease `json:"leases"`
	}
	post("/leases", `{"worker_id":"`+reg.WorkerID+`","max":2}`, &leased)
	if len(leased.Leases) != 1 {
		t.Fatalf("leases = %+v", leased.Leases)
	}
	l := leased.Leases[0]

	var hb struct {
		Renewed []string `json:"renewed"`
		Lost    []string `json:"lost"`
	}
	post("/heartbeats", `{"worker_id":"`+reg.WorkerID+`","leases":[{"id":"`+l.ID+`","elapsed_ns":1000}]}`, &hb)
	if len(hb.Renewed) != 1 || len(hb.Lost) != 0 {
		t.Fatalf("heartbeat = %+v", hb)
	}

	rec, _ := json.Marshal(fakeRecordFor(l.Spec, "wire"))
	post("/results", `{"lease_id":"`+l.ID+`","record":`+string(rec)+`}`, nil)
	got, err := waitTicket(t, ticket)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host.Worker != "wire" || got.Key != l.Key {
		t.Fatalf("delivered record = key %s worker %q", got.Key, got.Host.Worker)
	}
	post("/workers/deregister", `{"worker_id":"`+reg.WorkerID+`"}`, nil)
	if n := len(fleet.Status().Workers); n != 0 {
		t.Fatalf("workers after deregister = %d", n)
	}
}

// TestServerRejectsOversizedBodies posts 2 MiB bodies, past the
// server's 1 MiB request cap, to POST /sweeps and POST /results. Each
// gets a 4xx and changes nothing: no sweep is added, and the lease the
// oversized result names stays active.
func TestServerRejectsOversizedBodies(t *testing.T) {
	ts, fleet, _ := newFleetServer(t, lab.FleetConfig{LeaseTTL: 10 * time.Second}, 1)
	worker := fleet.Register("big", 1)
	fleet.Enqueue(testSpec("fib", 2))
	leases, err := fleet.Lease(worker, 1)
	if err != nil || len(leases) != 1 {
		t.Fatalf("lease = %v, %v; want one lease", leases, err)
	}
	var sweepsBefore, sweepsAfter []lab.SweepStatus
	getJSON(t, ts.URL+"/sweeps", &sweepsBefore)
	fleetBefore := fleet.Status()

	pad := strings.Repeat("x", 2<<20)
	for _, req := range []struct{ path, body string }{
		{"/sweeps", `{"name":"` + pad + `","benches":["fib"],"versions":["manual-tied"],"classes":["test"],"threads":[1]}`},
		{"/results", `{"lease_id":"` + leases[0].ID + `","error":"` + pad + `"}`},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatalf("POST %s: %v", req.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("POST %s with a %d-byte body: status %d, want 4xx", req.path, len(req.body), resp.StatusCode)
		}
	}

	getJSON(t, ts.URL+"/sweeps", &sweepsAfter)
	if !reflect.DeepEqual(sweepsAfter, sweepsBefore) {
		t.Errorf("sweeps changed: %d listed, was %d", len(sweepsAfter), len(sweepsBefore))
	}
	if got := fleet.Status(); !reflect.DeepEqual(got, fleetBefore) {
		t.Errorf("fleet status changed: %+v, was %+v", got, fleetBefore)
	}
}

// TestServerRejectsOversizedSweep: a small body asking for more than
// lab.MaxSweepCells cells gets a 4xx from POST /sweeps, and neither
// the sweep list nor the fleet changes.
func TestServerRejectsOversizedSweep(t *testing.T) {
	ts, fleet, _ := newFleetServer(t, lab.FleetConfig{LeaseTTL: 10 * time.Second}, 1)
	var sweepsBefore, sweepsAfter []lab.SweepStatus
	getJSON(t, ts.URL+"/sweeps", &sweepsBefore)
	fleetBefore := fleet.Status()

	var threads, cutoffs []string
	for i := 0; i < 300; i++ {
		threads = append(threads, strconv.Itoa(i+1))
		cutoffs = append(cutoffs, strconv.Itoa(i))
	}
	body := `{"benches":["fib"],"versions":["manual-tied"],"threads":[` + strings.Join(threads, ",") +
		`],"cutoff_depths":[` + strings.Join(cutoffs, ",") + `]}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Errorf("POST /sweeps for 300x300 cells: status %d, want 4xx", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/sweeps", &sweepsAfter)
	if !reflect.DeepEqual(sweepsAfter, sweepsBefore) {
		t.Errorf("sweeps changed: %d listed, was %d", len(sweepsAfter), len(sweepsBefore))
	}
	if got := fleet.Status(); !reflect.DeepEqual(got, fleetBefore) {
		t.Errorf("fleet status changed: %+v, was %+v", got, fleetBefore)
	}
}
