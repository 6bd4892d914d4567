package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTrace(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("botstrace %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestRecordAnalyzeSimulate records a trace to a file, then analyzes
// and replays that file with a Gantt chart and a Chrome trace; and
// records and analyzes in one run through '-'.
func TestRecordAnalyzeSimulate(t *testing.T) {
	dir := t.TempDir()
	file, chrome := filepath.Join(dir, "fib.trace"), filepath.Join(dir, "fib.json")
	if out := runTrace(t, "-bench", "fib", "-class", "test", "-o", file); !strings.Contains(out, "wrote "+file) {
		t.Errorf("record:\n%s", out)
	}
	out := runTrace(t, "-analyze", file, "-simulate", file, "-threads", "2", "-gantt", "-chrome", chrome)
	for _, want := range []string{"parallelism", "simulated: ", "wrote " + chrome} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze and simulate output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(chrome)
	if err != nil || !json.Valid(data) {
		t.Errorf("Chrome trace: %v, valid JSON %v", err, json.Valid(data))
	}
	if out := runTrace(t, "-bench", "fib", "-class", "test", "-analyze", "-"); !strings.Contains(out, "parallelism") {
		t.Errorf("record and analyze '-':\n%s", out)
	}
}

// TestBenchReplayIsCalibrated checks that a replay of a fresh -bench
// recording takes the lab's calibration, sort's memory profile
// included, while a bare file keeps the uncalibrated default.
func TestBenchReplayIsCalibrated(t *testing.T) {
	file := filepath.Join(t.TempDir(), "sort.trace")
	out := runTrace(t, "-bench", "sort", "-class", "test", "-o", file, "-simulate", "-", "-threads", "4")
	if !strings.Contains(out, ", mem fraction 0.55, bandwidth cap 8\n") {
		t.Errorf("-bench replay is not calibrated with sort's profile:\n%s", out)
	}
	out = runTrace(t, "-simulate", file, "-threads", "4")
	if !strings.Contains(out, "cost model: work unit 10 ns, mem fraction 0, bandwidth cap 0\n") {
		t.Errorf("bare-file replay:\n%s", out)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2}, // nothing to do
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-analyze", filepath.Join(t.TempDir(), "missing.trace")}, 1},
		{[]string{"-analyze", "-"}, 1}, // '-' without -bench
		{[]string{"-bench", "nope"}, 1},
	} {
		if got := exitCode(run(context.Background(), tc.args, io.Discard, io.Discard), io.Discard); got != tc.code {
			t.Errorf("botstrace %s: exit %d, want %d", strings.Join(tc.args, " "), got, tc.code)
		}
	}
}
