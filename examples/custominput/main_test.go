package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunAreasAgree writes the sample cells with -dump, solves them
// from the file on a 2-thread team, and checks that the sequential
// and parallel minimal areas agree on the sample's known 63.
func TestRunAreasAgree(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cells.dat")
	var out bytes.Buffer
	if err := run([]string{"-dump", file}, &out); err != nil || !strings.HasPrefix(out.String(), "wrote "+file) {
		t.Fatalf("-dump: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-cells", file, "-threads", "2"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`(?m)^sequential minimal bounding area: (\d+)\nparallel minimal bounding area: (\d+) `).
		FindStringSubmatch(out.String())
	if m == nil || m[1] != "63" || m[2] != "63" || !strings.HasPrefix(out.String(), "loaded 8 cells from "+file) {
		t.Errorf("output:\n%s", out.String())
	}
}
