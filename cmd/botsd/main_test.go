package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bots/internal/cmdtest"
	"bots/internal/lab"
	"bots/internal/obs"
)

// TestMain makes this test binary botsd itself when BOTSD_TEST_MAIN is
// set, for the one test that needs a process to signal.
func TestMain(m *testing.M) {
	if os.Getenv("BOTSD_TEST_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// newCoordinator serves the stack `botslab -serve -fleet` runs: a
// store, a fleet behind a CachedRunner, a dispatcher with botslab's
// default 2 retries and the lab server with its metrics.
func newCoordinator(t *testing.T) string {
	t.Helper()
	store, err := lab.OpenStore(filepath.Join(t.TempDir(), "lab.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	fleet := lab.NewFleet(lab.FleetConfig{Store: store})
	disp := lab.NewDispatcher(lab.NewCachedRunner(store, lab.NewRemoteRunner(fleet)), 64, 2)
	ts := httptest.NewServer((&lab.Server{Disp: disp, Store: store, Fleet: fleet, Obs: obs.NewRegistry()}).Handler())
	t.Cleanup(func() {
		ts.Close()
		disp.Close()
		fleet.Close()
		store.Close()
	})
	return ts.URL
}

// daemon is one in-process botsd run.
type daemon struct {
	log  cmdtest.Log
	stop context.CancelFunc
	done chan error
}

func startDaemon(coordinator, name string, args ...string) *daemon {
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{stop: cancel, done: make(chan error, 1)}
	args = append([]string{"-coordinator", coordinator, "-name", name, "-capacity", "1", "-poll", "10ms"}, args...)
	go func() { d.done <- run(ctx, args, io.Discard, &d.log) }()
	return d
}

// drain cancels the run, as SIGTERM does, and checks that it exits 0.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	d.stop()
	if err := <-d.done; exitCode(err, io.Discard) != 0 {
		t.Errorf("drain: %v\n%s", err, d.log.String())
	}
}

func awaitWorkers(t *testing.T, coordinator string, n int) lab.FleetStatus {
	t.Helper()
	var st lab.FleetStatus
	cmdtest.WaitFor(t, 10*time.Second, func() bool {
		st = lab.FleetStatus{}
		cmdtest.Get(t, coordinator+"/workers", &st)
		return len(st.Workers) == n
	})
	return st
}

// ciSmoke is the 4-cell manifest every test here sweeps.
func ciSmoke(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../../examples/manifests/ci-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleet runs two daemons against a coordinator. Both register and
// execute cells of a sweep that finishes verified; a second pass of
// the sweep grants no lease; the coordinator's /metrics counts the two
// idle workers and the grants, alpha's -metrics-addr its own leases;
// and cancelling each run drains it to a nil error with its port free
// and no goroutine left.
func TestFleet(t *testing.T) {
	coordinator := newCoordinator(t)
	settled := cmdtest.Settled(t)
	alpha := startDaemon(coordinator, "alpha", "-metrics-addr", "127.0.0.1:0")
	beta := startDaemon(coordinator, "beta")
	awaitWorkers(t, coordinator, 2)

	cmdtest.Sweep(t, coordinator, ciSmoke(t))
	st := awaitWorkers(t, coordinator, 2)
	for _, w := range st.Workers {
		if w.Done < 1 {
			t.Errorf("worker %s executed no cell", w.Name)
		}
	}
	cmdtest.Sweep(t, coordinator, ciSmoke(t))
	if again := awaitWorkers(t, coordinator, 2); again.LeasesGranted != st.LeasesGranted {
		t.Errorf("second pass granted %d leases", again.LeasesGranted-st.LeasesGranted)
	}

	m := string(cmdtest.Get(t, coordinator+"/metrics", nil))
	for _, line := range []string{"\nbots_lab_workers{state=\"idle\"} 2\n", fmt.Sprintf("\nbots_lab_leases_granted_total %d\n", st.LeasesGranted)} {
		if !strings.Contains(m, line) {
			t.Errorf("coordinator /metrics lacks %q", strings.TrimSpace(line))
		}
	}
	addr := alpha.log.Await(t, `metrics on http://(\S+)/metrics`)
	m = string(cmdtest.Get(t, "http://"+addr+"/metrics", nil))
	var alphaDone int
	for _, w := range st.Workers {
		if w.Name == "alpha" {
			alphaDone = w.Done
		}
	}
	for _, line := range []string{fmt.Sprintf("\nbots_lab_worker_leases_done_total %d\n", alphaDone), "\nbots_lab_http_retries_total 0\n"} {
		if !strings.Contains(m, line) {
			t.Errorf("alpha's /metrics lacks %q:\n%s", strings.TrimSpace(line), m)
		}
	}

	alpha.drain(t)
	beta.drain(t)
	awaitWorkers(t, coordinator, 0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("alpha's metrics port still bound: %v", err)
	}
	ln.Close()
	settled()
}

// TestChaosWire runs two daemons whose coordinator wire goes through
// the chaos flags (50 ms ± 25 ms latency, 15 % drops, retried up to
// six times): the sweep still finishes verified,
// and each daemon's /metrics shows that it retried dropped requests
// (both seeds drop one of their first three).
func TestChaosWire(t *testing.T) {
	t.Parallel()
	coordinator := newCoordinator(t)
	var daemons []*daemon
	for i, seed := range []string{"7", "23"} {
		d := startDaemon(coordinator, fmt.Sprint("chaos-", i), "-metrics-addr", "127.0.0.1:0", "-wire-retries", "6",
			"-chaos-latency", "50ms", "-chaos-jitter", "25ms", "-chaos-drop", "0.15", "-chaos-seed", seed)
		defer d.drain(t)
		d.log.Await(t, `chaos wire enabled: latency=50ms±25ms drop=0.15 seed=`+seed)
		daemons = append(daemons, d)
	}
	awaitWorkers(t, coordinator, 2)
	cmdtest.Sweep(t, coordinator, ciSmoke(t))
	for _, d := range daemons {
		m := cmdtest.Get(t, "http://"+d.log.Await(t, `metrics on http://(\S+)/metrics`)+"/metrics", nil)
		if strings.Contains(string(m), "\nbots_lab_http_retries_total 0\n") {
			t.Errorf("a chaos daemon retried no request:\n%s", m)
		}
	}
}

func TestExitCodes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-coordinator", "http://127.0.0.1:1", "-startup-retries", "0", "-wire-retries", "-1"}, 1},
		{[]string{"-metrics-addr", "127.0.0.1:-1"}, 1},
	} {
		if got := exitCode(run(context.Background(), tc.args, io.Discard, io.Discard), io.Discard); got != tc.code {
			t.Errorf("botsd %s: exit %d, want %d", strings.Join(tc.args, " "), got, tc.code)
		}
	}
}

// TestWireRetriesZeroDisables holds -wire-retries 0 to one attempt per
// coordinator request: against a closed port, registration fails at
// once instead of after two backoffs.
func TestWireRetriesZeroDisables(t *testing.T) {
	t.Parallel()
	err := run(context.Background(), []string{"-coordinator", "http://127.0.0.1:1", "-startup-retries", "0", "-wire-retries", "0"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "after 1 attempts") {
		t.Fatalf("botsd -wire-retries 0: %v, want an error after 1 attempts", err)
	}
}

// TestSIGTERMDrains runs botsd as its own process: after it has
// executed a sweep, SIGTERM makes it deregister and exit 0.
func TestSIGTERMDrains(t *testing.T) {
	t.Parallel()
	coordinator := newCoordinator(t)
	cmd := exec.Command(os.Args[0], "-coordinator", coordinator, "-name", "drain", "-capacity", "1", "-poll", "10ms")
	cmd.Env = append(os.Environ(), "BOTSD_TEST_MAIN=1")
	var log cmdtest.Log
	cmd.Stderr = &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	awaitWorkers(t, coordinator, 1)
	cmdtest.Sweep(t, coordinator, ciSmoke(t))

	cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("botsd after SIGTERM: %v\n%s", err, log.String())
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("botsd still running 10 s after SIGTERM:\n%s", log.String())
	}
	awaitWorkers(t, coordinator, 0)
}
