package lab_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	_ "bots/internal/apps/all"
	"bots/internal/lab"
	"bots/internal/report"
)

// newTestServer assembles the full service the way cmd/botslab does:
// store → executor → cached runner → dispatcher → HTTP handler, with
// the real report renderer injected.
func newTestServer(t *testing.T) (*httptest.Server, *lab.DirectRunner, *lab.Store) {
	t.Helper()
	store, err := lab.OpenStore(filepath.Join(t.TempDir(), "lab.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	direct := lab.NewDirectRunner()
	runner := lab.NewCachedRunner(store, direct)
	disp := lab.NewDispatcher(runner, 8, 1)
	srv := &lab.Server{
		Disp:         disp,
		Store:        store,
		Render:       report.RenderFuncFor(runner),
		PollInterval: 10 * time.Millisecond,
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		disp.Close()
		store.Close()
	})
	return ts, direct, store
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

// TestServerEndToEnd drives the full submit → poll → results →
// report flow over HTTP with a manifest covering 24 real job cells
// on the test class.
func TestServerEndToEnd(t *testing.T) {
	ts, direct, store := newTestServer(t)

	// 2 benches × 2 versions × 3 thread counts × 2 cut-off depths.
	manifest := `{
		"name": "e2e-grid",
		"benches": ["fib", "nqueens"],
		"versions": ["manual-tied", "if-tied"],
		"classes": ["test"],
		"threads": [1, 2, 4],
		"cutoff_depths": [3, 5]
	}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	var submitted lab.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps status = %d", resp.StatusCode)
	}
	if submitted.Total != 24 {
		t.Fatalf("sweep expanded to %d cells, want 24", submitted.Total)
	}

	// Poll until the sweep completes.
	deadline := time.Now().Add(60 * time.Second)
	var st lab.SweepStatus
	for {
		getJSON(t, ts.URL+"/sweeps/"+submitted.ID, &st)
		if st.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Done != 24 || st.Failed != 0 {
		t.Fatalf("sweep finished badly: %+v", st)
	}

	// Every record is retrievable, and filters narrow correctly.
	var all []lab.Record
	getJSON(t, ts.URL+"/results", &all)
	if len(all) != 24 {
		t.Fatalf("GET /results returned %d records, want 24", len(all))
	}
	for _, r := range all {
		if !r.Verified {
			t.Errorf("unverified record %s (%s/%s)", r.Key, r.Spec.Bench, r.Spec.Version)
		}
		if r.Sim == nil || r.Sim.Speedup <= 0 {
			t.Errorf("record %s has no simulated speedup", r.Key)
		}
	}
	var fib2 []lab.Record
	getJSON(t, ts.URL+"/results?bench=fib&threads=2", &fib2)
	if len(fib2) != 4 { // 2 versions × 2 cut-off depths
		t.Fatalf("filtered results = %d records, want 4", len(fib2))
	}

	// The report endpoint renders from the same store/runner; the
	// cut-off sweep below reuses nothing from the grid, so it
	// executes once, and a re-render is free.
	execsBefore := direct.Exec.Executions()
	resp, err = http.Get(ts.URL + "/report/cutoffdepth?class=test&threads=2")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "cut-off value sweep") {
		t.Fatalf("report page missing content:\n%s", page)
	}
	execsAfterFirst := direct.Exec.Executions()
	if execsAfterFirst == execsBefore {
		t.Fatal("first render should have executed the sweep's cells")
	}
	resp, err = http.Get(ts.URL + "/report/cutoffdepth?class=test&threads=2")
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := direct.Exec.Executions(); got != execsAfterFirst {
		t.Fatalf("re-render executed %d extra benchmarks, want 0", got-execsAfterFirst)
	}

	if store.Len() < 24 {
		t.Fatalf("store holds %d records, want >= 24", store.Len())
	}
}

func TestServerStreamsProgress(t *testing.T) {
	ts, _, _ := newTestServer(t)
	manifest := `{"name":"stream","benches":["fib"],"versions":["manual-tied"],"classes":["test"],"threads":[1,2]}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	var submitted lab.SweepStatus
	json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()

	// The follow stream emits NDJSON snapshots and closes when the
	// sweep finishes; the last line must be a finished status.
	resp, err = http.Get(fmt.Sprintf("%s/sweeps/%s?follow=true", ts.URL, submitted.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("follow content type = %q", ct)
	}
	var last lab.SweepStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("follow stream emitted nothing")
	}
	if !last.Finished() || last.Done != 2 {
		t.Fatalf("final streamed status = %+v", last)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	if resp := getJSON(t, ts.URL+"/sweeps/s999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep status = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/report/fig99", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure status = %d, want 404", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(`{"benches":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad manifest status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(`{"benches":["fib"],"typo":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field manifest status = %d, want 400", resp.StatusCode)
	}
}

// TestServerObservability covers the observability surface added with
// internal/obs: /healthz readiness JSON, /metrics exposition with the
// bots_lab_* gauges, and the pprof mounts.
func TestServerObservability(t *testing.T) {
	ts, _, _ := newTestServer(t)

	// Run one small sweep so the job gauges have state to report.
	manifest := `{"name":"obs","benches":["fib"],"versions":["manual-tied"],
		"classes":["test"],"threads":[1],"cutoff_depths":[3]}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	var st lab.SweepStatus
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	sw, ok := findSweep(ts, t, st.ID)
	if !ok {
		t.Fatalf("sweep %s not found", st.ID)
	}
	_ = sw

	// Poll /healthz until the job is done; the body must carry the
	// readiness fields a fleet probe needs.
	var hz struct {
		OK      bool `json:"ok"`
		Ready   bool `json:"ready"`
		Records int  `json:"records"`
		Sweeps  int  `json:"sweeps"`
		Jobs    struct {
			Queued  int `json:"queued"`
			Running int `json:"running"`
			Done    int `json:"done"`
			Failed  int `json:"failed"`
		} `json:"jobs"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+"/healthz", &hz)
		if !hz.OK || !hz.Ready {
			t.Fatalf("healthz not ok/ready: %+v", hz)
		}
		if hz.Jobs.Done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", hz)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hz.Sweeps != 1 || hz.Jobs.Failed != 0 {
		t.Errorf("healthz counts = %+v", hz)
	}

	// /metrics: exposition format with the lab gauges.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	out := string(mbody)
	for _, want := range []string{
		"# TYPE bots_lab_jobs gauge",
		`bots_lab_jobs{state="done"} 1`,
		"bots_lab_sweeps 1",
		"bots_lab_store_records",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}

	// pprof index answers.
	presp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", presp.StatusCode)
	}
}

// TestServerCancelSweep drives DELETE /sweeps/{id} over HTTP with a
// blockable runner: queued cells cancel immediately, running cells
// drain, and a ?follow=true stream ends on a terminal cancelled
// snapshot.
func TestServerCancelSweep(t *testing.T) {
	fake := &fakeRunner{block: make(chan struct{})}
	disp := lab.NewDispatcher(fake, 1, 0)
	srv := &lab.Server{Disp: disp, PollInterval: 5 * time.Millisecond}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		disp.Close()
	})

	sw, err := disp.SubmitJobs("victim", []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2), testSpec("fib", 4)})
	if err != nil {
		t.Fatal(err)
	}
	for sw.Status().Running != 1 {
		time.Sleep(time.Millisecond)
	}
	follow, err := http.Get(fmt.Sprintf("%s/sweeps/%s?follow=true", ts.URL, sw.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer follow.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+sw.ID(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled lab.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if cancelled.State != lab.SweepCancelling || cancelled.Cancelled != 2 {
		t.Fatalf("DELETE response = %+v", cancelled)
	}
	close(fake.block) // release the one running cell

	// The follow stream must terminate with a cancelled snapshot.
	var last lab.SweepStatus
	sc := bufio.NewScanner(follow.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
	}
	if last.State != lab.SweepCancelled || !last.Finished() {
		t.Fatalf("final streamed status = %+v", last)
	}
	if last.Done != 1 || last.Cancelled != 2 {
		t.Fatalf("final counts = %+v", last)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/s999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown sweep status = %d, want 404", resp.StatusCode)
	}
}

// findSweep fetches one sweep's status by id, reporting existence.
func findSweep(ts *httptest.Server, t *testing.T, id string) (lab.SweepStatus, bool) {
	t.Helper()
	var st lab.SweepStatus
	resp := getJSON(t, ts.URL+"/sweeps/"+id, &st)
	return st, resp.StatusCode == http.StatusOK
}

// TestServerRetiredSweep finishes RetainTerminal+1 sweeps so the oldest
// retires, then checks the routes answer for it from its summary:
// GET /sweeps/{id} with its final counts, "retired": true and no
// "jobs"; GET /sweeps still lists it; DELETE answers as it does for a
// finished sweep that has not retired, and changes no count.
func TestServerRetiredSweep(t *testing.T) {
	disp := lab.NewDispatcher(&fakeRunner{}, 1, 0)
	srv := &lab.Server{Disp: disp}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		disp.Close()
	})
	var finals []lab.SweepStatus
	for k := 0; k <= lab.RetainTerminal; k++ {
		sw, err := disp.SubmitJobs(fmt.Sprint("sweep ", k), []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2)})
		if err != nil {
			t.Fatal(err)
		}
		finals = append(finals, sw.Wait())
	}
	oldest, newest := finals[0], finals[len(finals)-1]

	var raw map[string]json.RawMessage
	if resp := getJSON(t, ts.URL+"/sweeps/"+oldest.ID, &raw); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET retired sweep: status %d", resp.StatusCode)
	}
	if _, ok := raw["jobs"]; ok {
		t.Errorf("retired sweep's status carries jobs: %s", raw["jobs"])
	}
	st, ok := findSweep(ts, t, oldest.ID)
	want := oldest
	want.Retired, want.Jobs = true, nil
	if !ok || !reflect.DeepEqual(st, want) {
		t.Errorf("GET retired sweep = %+v, want %+v", st, want)
	}

	var list []lab.SweepStatus
	getJSON(t, ts.URL+"/sweeps", &list)
	if len(list) != len(finals) || list[0].ID != oldest.ID || !list[0].Retired || list[0].Done != 2 {
		t.Errorf("GET /sweeps lists %d sweeps, first %+v; want %d with the retired one first", len(list), list[0], len(finals))
	}
	if list[1].Retired || len(list[1].Jobs) != 2 {
		t.Errorf("second sweep retired early: %+v", list[1])
	}

	counts := disp.Counts()
	cancel := func(id string) lab.SweepStatus {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: status %d", id, resp.StatusCode)
		}
		var st lab.SweepStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	live, retired := cancel(newest.ID), cancel(oldest.ID)
	if live.State != lab.SweepCancelled || live.Done != 2 || live.Cancelled != 0 || live.Retired {
		t.Fatalf("DELETE of a finished sweep = %+v", live)
	}
	live.ID, live.Name, live.Created, live.Jobs, live.Retired = oldest.ID, oldest.Name, oldest.Created, nil, true
	if !reflect.DeepEqual(retired, live) {
		t.Errorf("DELETE of a retired sweep = %+v, want %+v", retired, live)
	}
	if st, _ := findSweep(ts, t, oldest.ID); st.State != lab.SweepCancelled || !st.Retired {
		t.Errorf("retired sweep after DELETE = %+v", st)
	}
	if got := disp.Counts(); got != counts {
		t.Errorf("Counts() = %+v after DELETE of finished sweeps, want %+v", got, counts)
	}
}
