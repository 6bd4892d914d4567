package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bots/internal/chaos"
	"bots/internal/cmdtest"
	"bots/internal/lab"
)

// TestMain makes this test binary botslab itself when
// BOTSLAB_TEST_MAIN is set, for the one test that needs a process it
// can kill.
func TestMain(m *testing.M) {
	if os.Getenv("BOTSLAB_TEST_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

func runLab(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("botslab %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestManifestSweeps runs each example manifest twice on one store:
// the first pass fails no job and stores only verified records (a
// verification mismatch is a record, not a failed job), and the second
// is answered from the store alone. The store is reopened between
// passes, so every recorded scheduler and cut-off name must resolve
// through omp again.
func TestManifestSweeps(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"scheduler-grid", "runtime-cutoff-grid", "ci-smoke"} {
		t.Run(name, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "lab.jsonl")
			args := []string{"-manifest", "../../examples/manifests/" + name + ".json", "-store", store, "-progress=false"}
			if out := runLab(t, args...); !strings.Contains(out, ", 0 failed;") {
				t.Errorf("first pass: %s", out)
			}
			s, err := lab.OpenStore(store)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range s.Records() {
				if !r.Verified {
					t.Errorf("%s did not verify: %s", r.Key, r.VerifyError)
				}
			}
			s.Close()
			if out := runLab(t, args...); !strings.Contains(out, ", 0 executions;") {
				t.Errorf("second pass executed cells: %s", out)
			}
		})
	}
}

func TestExitCodes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2}, // nothing to do
		{[]string{"-fleet", "-manifest", "x.json"}, 2},
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-manifest", filepath.Join(t.TempDir(), "missing.json"), "-store", ""}, 1},
		{[]string{"-serve", "127.0.0.1:-1", "-store", ""}, 1},
	} {
		if got := exitCode(run(context.Background(), tc.args, io.Discard, io.Discard), io.Discard); got != tc.code {
			t.Errorf("botslab %s: exit %d, want %d", strings.Join(tc.args, " "), got, tc.code)
		}
	}
}

// TestServeStopsOnCancel serves the lab in-process twice on one store.
// Each run takes a sweep over HTTP and mounts /metrics and pprof; once
// its context is cancelled it returns nil with its port free and no
// goroutine left.
func TestServeStopsOnCancel(t *testing.T) {
	store := filepath.Join(t.TempDir(), "lab.jsonl")
	manifest, err := os.ReadFile("../../examples/manifests/ci-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		settled := cmdtest.Settled(t)
		ctx, cancel := context.WithCancel(context.Background())
		var log cmdtest.Log
		done := make(chan error, 1)
		go func() { done <- run(ctx, []string{"-serve", "127.0.0.1:0", "-store", store}, io.Discard, &log) }()
		base := "http://" + log.Await(t, `serving on (\S+) `)

		cmdtest.Sweep(t, base, manifest)
		if m := string(cmdtest.Get(t, base+"/metrics", nil)); !strings.Contains(m, "\nbots_lab_store_records 4\n") {
			t.Errorf("pass %d: /metrics lacks bots_lab_store_records 4:\n%s", pass, m)
		}
		cmdtest.Get(t, base+"/debug/pprof/", nil)

		cancel()
		if err := <-done; err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		ln, err := net.Listen("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatalf("pass %d: port still bound after run returned: %v", pass, err)
		}
		ln.Close()
		settled()
	}
}

// TestCoordinatorKilledMidSweep kills a journaled -fleet coordinator,
// run as its own process, with SIGKILL once three of a 16-cell sweep's
// records are stored, and restarts it on the same store, journal and
// port. Two workers serve both incarnations over a wire slowed by 20
// ms a request, so the kill lands mid-sweep, and a 500 ms lease TTL
// bounds how long the restart waits out leases the dead process
// granted. The restart must replay the journal and resume the sweep,
// which finishes with 16 verified records and no failed cell; a second
// pass of it must be answered from the store without granting a
// lease. TestChaosWire in cmd/botsd runs the lossy wire.
func TestCoordinatorKilledMidSweep(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	start := func(addr string) (*exec.Cmd, *cmdtest.Log) {
		cmd := exec.Command(os.Args[0], "-serve", addr, "-fleet", "-lease-ttl", "500ms",
			"-store", filepath.Join(dir, "lab.jsonl"), "-journal", filepath.Join(dir, "lab.journal"))
		cmd.Env = append(os.Environ(), "BOTSLAB_TEST_MAIN=1")
		log := new(cmdtest.Log)
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		return cmd, log
	}
	first, log := start("127.0.0.1:0")
	addr := log.Await(t, `serving on (\S+) `)
	base := "http://" + addr

	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	for _, name := range []string{"alpha", "beta"} {
		slow := chaos.New(chaos.Config{Latency: 20 * time.Millisecond}).Transport(nil)
		w := &lab.WorkerClient{Coordinator: base, Name: name, Capacity: 1, Poll: 10 * time.Millisecond,
			Client: &http.Client{Transport: slow}}
		workers.Add(1)
		go func() { defer workers.Done(); w.Run(ctx) }()
	}
	defer func() { cancel(); workers.Wait() }()
	var fleet lab.FleetStatus
	cmdtest.WaitFor(t, 10*time.Second, func() bool { cmdtest.Get(t, base+"/workers", &fleet); return len(fleet.Workers) == 2 })

	grid := []byte(`{"name": "chaos-grid", "benches": ["fib", "nqueens"], "versions": ["manual-tied", "if-tied"],
		"classes": ["test"], "threads": [1, 2], "cutoff_depths": [3, 5]}`)
	var submitted lab.SweepStatus
	cmdtest.Post(t, base+"/sweeps", grid, &submitted)
	var h struct {
		Records int
		Jobs    struct{ Queued, Running, Failed int }
	}
	cmdtest.WaitFor(t, 30*time.Second, func() bool { cmdtest.Get(t, base+"/healthz", &h); return h.Records >= 3 })
	first.Process.Kill()
	first.Wait()

	_, log = start(addr)
	log.Await(t, `journal \S+ replayed \d+ events`)
	log.Await(t, `resumed 1 unfinished sweep\(s\)`)
	log.Await(t, `serving on `)
	cmdtest.WaitFor(t, 60*time.Second, func() bool {
		cmdtest.Get(t, base+"/healthz", &h)
		return h.Records == 16 && h.Jobs.Queued+h.Jobs.Running == 0
	})
	var unverified []lab.Record
	if cmdtest.Get(t, base+"/results?verified=false", &unverified); h.Jobs.Failed != 0 || len(unverified) != 0 {
		t.Errorf("%d cells failed, %d records unverified", h.Jobs.Failed, len(unverified))
	}
	if data, err := os.ReadFile(filepath.Join(dir, "lab.jsonl")); err != nil || bytes.Contains(data, []byte(`"verified":false`)) {
		t.Errorf("store file: %v, or it holds an unverified record", err)
	}

	cmdtest.Get(t, base+"/workers", &fleet)
	granted := fleet.LeasesGranted
	cmdtest.Sweep(t, base, grid)
	if cmdtest.Get(t, base+"/workers", &fleet); fleet.LeasesGranted != granted {
		t.Errorf("second pass granted %d leases", fleet.LeasesGranted-granted)
	}
}
