package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks the example's two results: the prime count below
// 200 000 and fib(30).
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"primes below 200000: 17984\n", "fib(30) = 832040\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
