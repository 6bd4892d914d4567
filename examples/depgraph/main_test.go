package main

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestRun checks the future's sum of the pipeline and, with -trace,
// its dependence edges: seven neighbour exchanges, seven fold steps at
// priority 2 and the future, each waiting on the tasks it reads after.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-threads", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	const sum = "pipeline result: 142 (future done: true)\n"
	if !strings.HasPrefix(out.String(), sum) || strings.Contains(out.String(), "depends on") {
		t.Errorf("output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-threads", "2", "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{} // "priority/number of dependences" -> tasks
	for _, e := range regexp.MustCompile(`(?m)^task +\d+ \(prio (\d)\) depends on \[([\d ]+)\]$`).FindAllStringSubmatch(out.String(), -1) {
		kinds[fmt.Sprintf("%s/%d", e[1], len(strings.Fields(e[2])))]++
	}
	if want := map[string]int{"0/2": 7, "2/2": 7, "0/1": 1}; !strings.HasPrefix(out.String(), sum) || !reflect.DeepEqual(kinds, want) {
		t.Errorf("edges by priority/dependences %v, want %v, in output:\n%s", kinds, want, out.String())
	}
}
