package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunVerifiesEveryVersion runs the example at test class on a
// 2-thread team simulated on 4, and checks for one verified line per
// version, each recorded on the 2-thread team, after the sequential
// header.
func TestRunVerifiesEveryVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-class", "test", "-threads", "2", "-virtual", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2+len(versions) || !strings.HasPrefix(lines[0], "sequential: ") || lines[1] != "" {
		t.Fatalf("output:\n%s", out.String())
	}
	for i, v := range versions {
		if l := lines[2+i]; !strings.HasPrefix(l, v+" ") || !strings.Contains(l, " verified tasks=") ||
			!strings.Contains(l, " recorded(2T) simulated(4T): speedup=") {
			t.Errorf("line for %s: %q", v, l)
		}
	}
}

// TestRunRejectsTeamLargerThanSimulation checks that a recording team
// the simulation could not host is refused before anything runs.
func TestRunRejectsTeamLargerThanSimulation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-threads", "8", "-virtual", "4"}, &out); err == nil || out.Len() != 0 {
		t.Fatalf("err %v, output %q", err, out.String())
	}
}
