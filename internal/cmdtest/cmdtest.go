// Package cmdtest holds what the tests of the cmd/ drivers share: a
// log a test can wait on, JSON over HTTP, a sweep run through a lab
// server, and the check that a driver's run left no goroutine behind.
// Only tests import it.
package cmdtest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"bots/internal/lab"
)

// Log is an io.Writer a driver's stderr can go to while a test reads
// it.
type Log struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *Log) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *Log) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// Await waits up to 10 s for pattern to match the log and returns its
// first submatch, or the whole match if it has none.
func (l *Log) Await(t testing.TB, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := re.FindStringSubmatch(l.String()); m != nil {
			return m[len(m)-1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q in the log:\n%s", pattern, l.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// client keeps no idle connection, so a test's own requests leave no
// goroutine for Settled to wait out.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

// Get fetches url, fails t unless it answers 200, and returns the
// body; with v non-nil it decodes the body into v as JSON.
func Get(t testing.TB, url string, v any) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v: %s", url, resp.Status, err, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return body
}

// Post posts body to url as JSON and decodes the answer into v.
func Post(t testing.TB, url string, body []byte, v any) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("POST %s: %s: %v", url, resp.Status, err)
	}
}

// WaitFor polls cond every 10 ms and fails t if it does not hold
// within the given time.
func WaitFor(t testing.TB, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not met within %v", within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Sweep submits manifest to the lab server at base and waits up to
// 30 s for the sweep to finish. It fails t unless every cell is done,
// none failed, and the server holds no unverified record.
func Sweep(t testing.TB, base string, manifest []byte) lab.SweepStatus {
	t.Helper()
	var st lab.SweepStatus
	Post(t, base+"/sweeps", manifest, &st)
	WaitFor(t, 30*time.Second, func() bool { Get(t, base+"/sweeps/"+st.ID, &st); return st.Finished() })
	if st.State != "done" || st.Failed != 0 || st.Done != st.Total {
		t.Fatalf("sweep finished badly: %+v", st)
	}
	var unverified []lab.Record
	if Get(t, base+"/results?verified=false", &unverified); len(unverified) != 0 {
		t.Fatalf("%d unverified records", len(unverified))
	}
	return st
}

// Settled returns a check that waits, up to 10 s, for the process's
// goroutines to fall back to the count they have now, and fails t
// with every stack if they do not. Call it before starting a run and
// the check after the run returns.
func Settled(t testing.TB) func() {
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines left, %d before the run:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
