package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bots/internal/lab"
)

// fleet is lab.fleet: the coordinator side is what `botslab -fleet`
// assembles (store, journal, Fleet, CachedRunner over RemoteRunner, a
// 64-slot Dispatcher, the lab.Server handler on a loopback listener)
// and the worker side is two WorkerClients configured as botsd
// configures them by default: a name, capacity 1, and nothing else
// but an Executor whose sequential baselines set-up has already run,
// so the window measures cells and not ten one-off baselines.
type fleet struct {
	dir     string
	cells   []lab.JobSpec
	store   *lab.Store
	journal *lab.Journal
	coord   *lab.Fleet
	disp    *lab.Dispatcher
	server  *httptest.Server
	routes  *routeTimer

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	workerErr   [fleetWorkers]error

	landed sync.Map // job key -> time.Time of its JobDone transition

	cellsPerS float64 // the traced pass's rate, for the idle-wait figure
}

const fleetWorkers = 2

// routeTimer is a timing middleware around the coordinator's handler:
// a span and a running total per route, and for POST /leases whether
// the grant was empty.
type routeTimer struct {
	next http.Handler
	e    *env

	mu     sync.Mutex
	ns     map[string]int64
	calls  map[string]int64
	grants [2]int64 // POST /leases responses: [empty, non-empty]
}

type capture struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *capture) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.Method + " " + r.URL.Path
	rt.mu.Lock()
	e := rt.e
	rt.mu.Unlock()
	var sp *span
	if e != nil {
		sp = e.tr.start(e.root, "lab.fleet", route)
	}
	var cw *capture
	if r.URL.Path == "/leases" {
		cw = &capture{ResponseWriter: w}
		w = cw
	}
	t0 := time.Now()
	rt.next.ServeHTTP(w, r)
	el := time.Since(t0)
	sp.end()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ns[route] += int64(el)
	rt.calls[route]++
	if cw != nil {
		var resp struct {
			Leases []json.RawMessage `json:"leases"`
		}
		if json.Unmarshal(cw.body.Bytes(), &resp) == nil {
			if len(resp.Leases) > 0 {
				rt.grants[1]++
			} else {
				rt.grants[0]++
			}
		}
	}
}

// attach points the middleware's spans at e and restarts its totals;
// attach(nil) stops the spans and keeps the totals for the probes.
func (rt *routeTimer) attach(e *env) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.e = e; e != nil || rt.ns == nil {
		rt.ns, rt.calls, rt.grants = map[string]int64{}, map[string]int64{}, [2]int64{}
	}
}

func (f *fleet) setup(e *env) (err error) {
	if f.dir, err = e.scratch("fleet"); err != nil {
		return err
	}
	f.cells = flatten(cellList(e.rng, e.quick))
	exec := lab.NewExecutor()
	if err := warmExecutor(exec, f.cells, warmCells); err != nil {
		return err
	}
	if f.store, err = lab.OpenStore(filepath.Join(f.dir, "store.jsonl")); err != nil {
		return err
	}
	if f.journal, _, err = lab.OpenJournal(filepath.Join(f.dir, "store.jsonl.journal")); err != nil {
		return err
	}
	f.coord = lab.NewFleet(lab.FleetConfig{Store: f.store, Journal: f.journal})
	f.disp = lab.NewDispatcher(lab.NewCachedRunner(f.store, lab.NewRemoteRunner(f.coord)), 64, 0)
	f.disp.Journal = f.journal
	f.disp.OnProgress = func(ev lab.ProgressEvent) {
		if ev.Job.Status == lab.JobDone {
			f.landed.Store(ev.Job.Key, time.Now())
		}
	}
	srv := &lab.Server{Disp: f.disp, Store: f.store, Fleet: f.coord}
	f.routes = &routeTimer{next: srv.Handler()}
	f.routes.attach(nil)
	f.server = httptest.NewServer(f.routes)

	ctx, cancel := context.WithCancel(context.Background())
	f.stopWorkers = cancel
	for i := 0; i < fleetWorkers; i++ {
		wc := &lab.WorkerClient{
			Coordinator: f.server.URL,
			Name:        fmt.Sprintf("bench-w%d", i+1),
			Capacity:    1,
			Exec:        exec,
		}
		f.workers.Add(1)
		go func(i int) {
			defer f.workers.Done()
			f.workerErr[i] = wc.Run(ctx)
		}(i)
	}
	return nil
}

func (f *fleet) measure(e *env) error {
	if e.tr != nil {
		f.routes.attach(e)
		defer f.routes.attach(nil)
	}
	// Cells an earlier window already landed would be store hits, not
	// fleet work: submit only what the store does not hold.
	var todo []lab.JobSpec
	for _, c := range f.cells {
		if _, ok := f.store.Get(c.Key()); !ok {
			todo = append(todo, c)
		}
	}
	sp := e.tr.start(e.root, "lab.dispatcher", "sweep fleet")
	defer sp.end()
	t0 := time.Now()
	sw, err := f.disp.SubmitJobs("fleet", todo)
	if err != nil {
		return err
	}
	select {
	case <-sw.Done():
	case <-time.After(e.window):
	}
	// A window shorter than the workers' idle poll can end before the
	// first lease is even asked for; a rate needs one landing.
	for sw.Status().Done == 0 && time.Since(t0) < e.window+5*time.Second {
		time.Sleep(10 * time.Millisecond)
	}
	st, err := f.disp.Cancel(sw.ID())
	if err != nil {
		return err
	}

	// Count what landed: done cells whose record is in the store and
	// verified. The window runs to the last landing, so a cell half
	// way through at the cut-off neither counts nor stretches it.
	var good, bad int64
	var last time.Time
	for _, j := range st.Jobs {
		switch j.Status {
		case lab.JobFailed:
			bad++
		case lab.JobDone:
			if rec, ok := f.store.Get(j.Key); !ok || !rec.Verified {
				bad++
				continue
			}
			good++
			if at, ok := f.landed.Load(j.Key); ok && at.(time.Time).After(last) {
				last = at.(time.Time)
			}
		}
	}
	e.checkN(good+bad, bad, "fleet cells failed or unverified")
	if good == 0 {
		return fmt.Errorf("no cell landed in a %s window", e.window)
	}
	f.cellsPerS = float64(good) / last.Sub(t0).Seconds()
	e.timeMS = append(e.timeMS, 1000/f.cellsPerS)
	e.rates = append(e.rates, f.cellsPerS)
	return nil
}

func (f *fleet) probes(e *env) error {
	// From the traced window's middleware totals.
	rt := f.routes
	rt.mu.Lock()
	var requests int64
	for _, n := range rt.calls {
		requests += n
	}
	if n := rt.calls["POST /leases"]; n > 0 {
		e.layer("lab.fleet.leases_us", float64(rt.ns["POST /leases"])/1e3/float64(n))
		e.layer("lab.fleet.lease_hit_ratio", float64(rt.grants[1])/float64(rt.grants[0]+rt.grants[1]))
	}
	if n := rt.calls["POST /results"]; n > 0 {
		e.layer("lab.fleet.results_us", float64(rt.ns["POST /results"])/1e3/float64(n))
	}
	rt.mu.Unlock()
	e.layer("lab.fleet.requests", float64(requests))

	execMS, wireMS, err := f.wire(e)
	if err != nil {
		return err
	}
	e.layer("lab.exec_ms_per_cell", execMS)
	e.layer("lab.fleet.wire_cell_ms", wireMS)
	e.layer("lab.worker.idle_wait_ms_per_cell", fleetWorkers*1000/f.cellsPerS-execMS-wireMS)

	// Journal append, directly: the lease-traffic events a cell costs.
	j, _, err := lab.OpenJournal(filepath.Join(f.dir, "probe.journal"))
	if err != nil {
		return err
	}
	n := 5000
	if e.quick {
		n = 100
	}
	sp := e.tr.start(e.root, "lab.journal", "LeaseGranted")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		j.LeaseGranted("l0", "0123456789abcdef", "w0", 1)
	}
	el := time.Since(t0)
	sp.end()
	e.layer("lab.journal.append_us", float64(el)/1e3/float64(n))
	return j.Close()
}

// wire measures the lease protocol with everything else taken out:
// the benchmark registers as a worker itself and answers each lease
// at once with a record it built beforehand, so a cell costs two
// round trips, the journal and the store, and no execution or idle
// poll. It returns the mean execution time of those cells (measured
// while building the records) and the wire time per cell.
func (f *fleet) wire(e *env) (execMS, wireMS float64, err error) {
	// The botsd workers would take leases too, and a cell one of them is
	// still finishing would turn into a store hit: drain them before
	// choosing the cells.
	f.stopWorkers()
	f.workers.Wait()

	var cells []lab.JobSpec
	for _, c := range f.cells {
		if _, ok := f.store.Get(c.Key()); !ok {
			if cells = append(cells, c); len(cells) == 200 {
				break
			}
		}
	}
	if len(cells) == 0 {
		return 0, 0, fmt.Errorf("no unlanded cells left for the wire probe")
	}
	ex := lab.NewExecutor()
	if err := warmExecutor(ex, cells, 0); err != nil {
		return 0, 0, err
	}
	records := map[string]*lab.Record{}
	sp := e.tr.start(e.root, "lab.exec", "Execute (prebuilding wire records)")
	t0 := time.Now()
	for _, c := range cells {
		rec, err := ex.Execute(c)
		if err != nil {
			return 0, 0, err
		}
		records[rec.Key] = rec
	}
	execMS = ms(time.Since(t0)) / float64(len(cells))
	sp.end()

	post := func(path string, body, out any) error {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(f.server.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: %s", path, resp.Status)
		}
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	var reg struct {
		WorkerID string `json:"worker_id"`
	}
	if err := post("/workers/register", map[string]any{"name": "bench-wire", "capacity": 1}, &reg); err != nil {
		return 0, 0, err
	}
	sp = e.tr.start(e.root, "lab.dispatcher", "sweep wire")
	defer sp.end()
	sw, err := f.disp.SubmitJobs("wire", cells)
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	for done := false; !done; {
		var grant struct {
			Leases []lab.Lease `json:"leases"`
		}
		if err := post("/leases", map[string]any{"worker_id": reg.WorkerID, "max": 1}, &grant); err != nil {
			return 0, 0, err
		}
		for _, l := range grant.Leases {
			if err := post("/results", map[string]any{"lease_id": l.ID, "record": records[l.Key]}, nil); err != nil {
				return 0, 0, err
			}
		}
		if len(grant.Leases) > 0 {
			continue
		}
		// Nothing queued: the sweep has ended, or the dispatcher is
		// between cells.
		select {
		case <-sw.Done():
			done = true
		case <-time.After(time.Millisecond):
			if time.Since(t0) > 30*time.Second {
				return 0, 0, fmt.Errorf("wire probe: %d of %d cells after 30s", sw.Status().Done, len(cells))
			}
		}
	}
	st := sw.Status()
	wireMS = ms(time.Since(t0)) / float64(len(cells))
	e.checkN(int64(len(cells)), countBad(f.store, cells, st), "wire-probe cells failed, lost or unverified")
	return execMS, wireMS, post("/workers/deregister", map[string]any{"worker_id": reg.WorkerID}, nil)
}

// close drains the workers (they finish their leases, post the
// results and deregister), then closes the dispatcher, server, fleet,
// journal and store, and removes the scratch directory.
func (f *fleet) close() error {
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if f.stopWorkers != nil {
		f.stopWorkers()
		f.workers.Wait()
		for _, werr := range f.workerErr {
			keep(werr)
		}
	}
	if f.disp != nil {
		// Cells still queued behind the dispatcher's 64 slots resolve
		// as cancelled; none is left waiting on the fleet.
		for _, sw := range f.disp.Sweeps() {
			f.disp.Cancel(sw.ID())
		}
		f.disp.Close()
	}
	if f.server != nil {
		http.DefaultClient.CloseIdleConnections() // the workers' keep-alives
		f.server.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.journal != nil {
		keep(f.journal.Close())
	}
	if f.store != nil {
		keep(f.store.Close())
	}
	if f.dir != "" {
		keep(os.RemoveAll(f.dir))
	}
	return err
}
