package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"bots/internal/cmdtest"
	"bots/internal/serve"
)

// monotone reports whether a latency summary's quantiles never
// decrease, the convention the histogram's clamped upper bounds give.
func monotone(s serve.LatencyStats) bool { return s.P50 <= s.P99 && s.P99 <= s.P999 }

// TestEveryScheduler serves 40 health requests under each scheduler
// and checks the bots-serve/v1 report: every submitted request
// completed and verified, with monotone total and queueing quantiles.
func TestEveryScheduler(t *testing.T) {
	t.Parallel()
	for _, sched := range []string{"workfirst", "breadthfirst", "centralized", "locality"} {
		t.Run(sched, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			args := []string{"-bench", "health", "-scheduler", sched, "-rate", "400", "-requests", "40", "-json"}
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			var r serve.Report
			if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			if r.Schema != "bots-serve/v1" || r.Scheduler != sched || r.Submitted == 0 || r.Completed != r.Submitted || r.VerifyFailures != 0 {
				t.Errorf("schema %q, scheduler %q, %d submitted, %d completed, %d failed verification",
					r.Schema, r.Scheduler, r.Submitted, r.Completed, r.VerifyFailures)
			}
			if !monotone(r.Total) || !monotone(r.Queueing) {
				t.Errorf("quantiles not monotone: total %+v, queueing %+v", r.Total, r.Queueing)
			}
		})
	}
}

// sample is one exposition line: `name{labels} value`.
var sample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{\S*\})? [+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// TestMetricsScrape scrapes a run's -metrics-addr listener, found by
// the address botserve prints, once 100 requests are in (a third of
// the run, so the latency histogram has a spread). The
// exposition is well-formed, counts the requests, has four monotone
// total-latency quantile gauges, the team gauges and the latency
// histogram; the flight recorder dumps events with non-negative
// spans. Once run returns, its port is free and no goroutine is left.
func TestMetricsScrape(t *testing.T) {
	settled := cmdtest.Settled(t)
	var stdout bytes.Buffer
	var log cmdtest.Log
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{"-bench", "health", "-rate", "300", "-duration", "1s",
			"-metrics-addr", "127.0.0.1:0", "-json"}, &stdout, &log)
	}()
	addr := log.Await(t, `botserve: metrics on http://(\S+)/metrics`)

	var metrics string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		metrics = string(cmdtest.Get(t, "http://"+addr+"/metrics", nil))
		var n int
		if m := regexp.MustCompile(`(?m)^bots_serve_requests_total (\S+)$`).FindStringSubmatch(metrics); m != nil {
			n, _ = strconv.Atoi(m[1])
		}
		if n >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bots_serve_requests_total never reached 100:\n%s", metrics)
		}
	}
	var quantiles []float64
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("bad exposition line %q", line)
		}
		if strings.HasPrefix(line, "bots_serve_total_latency_seconds{quantile") {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			quantiles = append(quantiles, v)
		}
	}
	if len(quantiles) != 4 || quantiles[0] > quantiles[1] || quantiles[1] > quantiles[2] || quantiles[2] > quantiles[3] {
		t.Errorf("total latency quantile gauges %v, want 4 monotone", quantiles)
	}
	for _, want := range []string{"\nbots_team_workers ", "\n# TYPE bots_serve_total_seconds histogram\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
	var dump struct {
		Schema string
		Events []struct {
			SpanNS int64 `json:"span_ns"`
		}
	}
	cmdtest.Get(t, "http://"+addr+"/debug/flightrec", &dump)
	if dump.Schema != "bots-flightrec/v2" || len(dump.Events) == 0 {
		t.Errorf("flight recorder dump: schema %q, %d events", dump.Schema, len(dump.Events))
	}
	for _, ev := range dump.Events {
		if ev.SpanNS < 0 {
			t.Fatalf("event with span_ns %d", ev.SpanNS)
		}
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var r serve.Report
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil || r.Submitted == 0 || r.VerifyFailures != 0 {
		t.Errorf("report: %v, %d submitted, %d failed verification", err, r.Submitted, r.VerifyFailures)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("metrics port still bound after run returned: %v", err)
	}
	ln.Close()
	settled()
}

func TestExitCodes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-class", "nope"}, 2},
		{[]string{"-bench", "nope", "-requests", "1"}, 2},
		{[]string{"-metrics-addr", "127.0.0.1:-1"}, 2},
	} {
		if got := exitCode(run(context.Background(), tc.args, io.Discard, io.Discard), io.Discard); got != tc.code {
			t.Errorf("botserve %s: exit %d, want %d", strings.Join(tc.args, " "), got, tc.code)
		}
	}
	// No workload fails verification on demand; this is the error run
	// returns when some request does.
	if got := exitCode(fmt.Errorf("%d %w", 3, errVerify), io.Discard); got != 1 {
		t.Errorf("verification failure: exit %d, want 1", got)
	}
}
