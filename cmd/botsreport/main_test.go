package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestRender renders two artifacts into a fresh store and again from
// it, then once with no store: the summary names the store and counts
// the cells executed.
func TestRender(t *testing.T) {
	store := filepath.Join(t.TempDir(), "lab.jsonl")
	for _, tc := range []struct{ store, summary string }{
		{store, "(store " + store + ", 8 records)"},
		{store, "0 executions (store " + store + ", 8 records)"},
		{"", "(store in-memory, 8 records)"},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-class", "test", "-threads", "1,2", "-only", "table1, extensions", "-store", tc.store}
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "Table I") || !strings.Contains(stdout.String(), "Extensions —") {
			t.Errorf("-only table1,extensions rendered:\n%s", stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.summary) {
			t.Errorf("summary %q lacks %q", stderr.String(), tc.summary)
		}
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-only", "nope", "-store", ""}, 1},
		{[]string{"-class", "nope"}, 1},
		{[]string{"-threads", "0"}, 1},
		{[]string{"-threads", "4x"}, 1},
	} {
		if got := exitCode(run(context.Background(), tc.args, io.Discard, io.Discard), io.Discard); got != tc.code {
			t.Errorf("botsreport %s: exit %d, want %d", strings.Join(tc.args, " "), got, tc.code)
		}
	}
}
