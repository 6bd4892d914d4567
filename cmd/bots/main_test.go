package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bots/internal/lab"
)

func runBots(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("bots %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestRun runs one cell in text mode with every optional stage on,
// under -procs 1, which must not outlive the run.
func TestRun(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	out := runBots(t, "-bench", "fib", "-class", "test", "-threads", "2", "-simulate", "2", "-obs", "-procs", "1")
	for _, want := range []string{"verification: OK", "simulated on 2 virtual threads",
		`bots_run_elapsed_seconds{bench="fib",scheduler="workfirst",threads="2",version="`} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Errorf("GOMAXPROCS %d after the run, %d before", got, procs)
	}
	if out := runBots(t, "-list"); !strings.Contains(out, "fib ") {
		t.Errorf("-list lacks fib:\n%s", out)
	}
}

// TestJSONStore runs one cell twice through the lab pipeline on one
// store: both print the same verified Record, and the store holds one.
func TestJSONStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "lab.jsonl")
	var keys []string
	for i := 0; i < 2; i++ {
		var rec lab.Record
		if err := json.Unmarshal([]byte(runBots(t, "-bench", "fib", "-class", "test", "-threads", "2", "-json", "-store", store)), &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.Verified {
			t.Errorf("record did not verify: %s", rec.VerifyError)
		}
		keys = append(keys, rec.Key)
	}
	s, err := lab.OpenStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if keys[0] != keys[1] || s.Len() != 1 {
		t.Errorf("keys %v, %d records stored", keys, s.Len())
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2}, // no -bench
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-bench", "nope"}, 1},
		{[]string{"-bench", "fib", "-version", "nope"}, 1},
		{[]string{"-bench", "fib", "-class", "nope"}, 1},
		{[]string{"-bench", "fib", "-class", "test", "-policy", "nope"}, 1},
	} {
		if got := exitCode(run(context.Background(), tc.args, io.Discard, io.Discard), io.Discard); got != tc.code {
			t.Errorf("bots %s: exit %d, want %d", strings.Join(tc.args, " "), got, tc.code)
		}
	}
}

// TestSimulateIsTheLabCell runs a text -simulate cell and then the
// same flags with -json on one store: the text run records on
// -threads, both name one key, and the second run is a cache hit. A
// simulated team smaller than the recording team is refused.
func TestSimulateIsTheLabCell(t *testing.T) {
	store := filepath.Join(t.TempDir(), "lab.jsonl")
	args := []string{"-bench", "fib", "-class", "test", "-threads", "2", "-simulate", "4", "-store", store}
	text := runBots(t, args...)
	var rec lab.Record
	if err := json.Unmarshal([]byte(runBots(t, append(args, "-json")...)), &rec); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lab cell " + rec.Key + "\n", "recorded on 2 threads", "verification: OK",
		"simulated on 4 virtual threads"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output lacks %q:\n%s", want, text)
		}
	}
	s, err := lab.OpenStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Errorf("%d records stored, want 1", s.Len())
	}
	bad := []string{"-bench", "fib", "-class", "test", "-threads", "4", "-simulate", "2"}
	if got := exitCode(run(context.Background(), bad, io.Discard, io.Discard), io.Discard); got != 1 {
		t.Errorf("bots %s: exit %d, want 1", strings.Join(bad, " "), got)
	}
}
