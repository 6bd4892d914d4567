package omp

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"bots/internal/obs"
)

// eventSeq renders a recorder snapshot as "kind/worker/arg" words,
// timestamps excluded. A wake's arg is its park duration, so it is
// rendered as "*".
func eventSeq(evs []obs.Event) string {
	words := make([]string, len(evs))
	for i, ev := range evs {
		arg := strconv.FormatInt(ev.Arg, 10)
		if ev.Kind == obs.EvWake {
			arg = "*"
		}
		words[i] = ev.Kind.String() + "/" + strconv.Itoa(ev.Worker) + "/" + arg
	}
	return strings.Join(words, " ")
}

// checkEventTimes asserts that every ring's timestamps are
// non-decreasing and that each lies within [before, after].
func checkEventTimes(t *testing.T, evs []obs.Event, before, after time.Time) {
	t.Helper()
	lo, hi := before.UnixNano(), after.UnixNano()
	last := map[int]int64{}
	for i, ev := range evs {
		if ev.TimeNS < lo || ev.TimeNS > hi {
			t.Errorf("event %d (%v) at %d, outside [%d, %d]", i, ev.Kind, ev.TimeNS, lo, hi)
		}
		if prev, ok := last[ev.Worker]; ok && ev.TimeNS < prev {
			t.Errorf("event %d (%v) on ring %d at %d, before the ring's previous %d", i, ev.Kind, ev.Worker, ev.TimeNS, prev)
		}
		last[ev.Worker] = ev.TimeNS
	}
}

// flightSeqTree is a fixed task tree touching every worker-side event
// a single worker can produce: deferred spawns at three depths, an
// undeferred task (no events), a dependence-held task whose spawn is
// recorded at its release, and the finishes of all of them.
func flightSeqTree(c *Context) {
	var x int
	c.Task(func(c *Context) {
		c.Task(func(c *Context) {
			c.Task(func(c *Context) {})
			c.Taskwait()
		})
		c.Task(func(c *Context) {}, If(false))
		c.Taskwait()
	})
	c.Task(func(c *Context) {}, Out(&x))
	c.Task(func(c *Context) {}, In(&x))
	c.Task(func(c *Context) {})
	c.Taskwait()
}

// flightSeqSubmission is the persistent-team body: the root runs
// inline (no spawn event), then two children and one grandchild.
func flightSeqSubmission(c *Context) {
	c.Task(func(c *Context) {
		c.Task(func(c *Context) {})
		c.Taskwait()
	})
	c.Task(func(c *Context) {})
	c.Taskwait()
}

// Pinned event sequences: the exact (kind, worker, arg) order a fixed
// task tree leaves in the recorder. Recording-path changes must leave
// both unchanged.
const (
	wantParallelSeq = "spawn/0/1 spawn/0/1 spawn/0/1 finish/0/1 finish/0/1 spawn/0/1 finish/0/1 " +
		"spawn/0/2 spawn/0/3 finish/0/3 finish/0/2 finish/0/1"
	wantPersistentSeq = "park/0/0 " +
		"submit/-1/1 wake/0/* spawn/0/2 spawn/0/2 finish/0/2 spawn/0/3 finish/0/3 finish/0/2 finish/0/1 park/0/0 " +
		"submit/-1/1 wake/0/* spawn/0/2 spawn/0/2 finish/0/2 spawn/0/3 finish/0/3 finish/0/2 finish/0/1 park/0/0 " +
		"submit/-1/1 wake/0/* spawn/0/2 spawn/0/2 finish/0/2 spawn/0/3 finish/0/3 finish/0/2 finish/0/1 park/0/0 " +
		"wake/0/*"
)

// TestFlightRecorderEventSequence pins what the flight recorder holds
// after a deterministic run: the event sequence of a fixed task tree
// on a one-worker Parallel region, and of three SubmitWaits on a
// one-worker PersistentTeam (each submitted once the worker's park
// is visible, so the park/wake interleaving is fixed too), taken after
// Close. Every ring's timestamps are non-decreasing and lie between
// clock reads taken before and after the run.
func TestFlightRecorderEventSequence(t *testing.T) {
	t.Run("parallel", func(t *testing.T) {
		fr := obs.NewFlightRecorder(1, 1024)
		before := time.Now()
		Parallel(1, flightSeqTree, WithFlightRecorder(fr))
		after := time.Now()
		evs := fr.Snapshot()
		if got := eventSeq(evs); got != wantParallelSeq {
			t.Errorf("event sequence:\n got %s\nwant %s", got, wantParallelSeq)
		}
		checkEventTimes(t, evs, before, after)
	})

	t.Run("persistent", func(t *testing.T) {
		fr := obs.NewFlightRecorder(1, 1024)
		before := time.Now()
		pt := NewPersistentTeam(1, WithFlightRecorder(fr))
		parks := 0
		awaitPark := func() {
			t.Helper()
			parks++
			deadline := time.Now().Add(5 * time.Second)
			for {
				n := 0
				for _, ev := range fr.Snapshot() {
					if ev.Kind == obs.EvPark {
						n++
					}
				}
				if n == parks {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("worker never published park %d (saw %d)", parks, n)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		for i := 0; i < 3; i++ {
			awaitPark()
			pt.SubmitWait(flightSeqSubmission)
		}
		awaitPark()
		pt.Close()
		after := time.Now()
		evs := fr.Snapshot()
		if got := eventSeq(evs); got != wantPersistentSeq {
			t.Errorf("event sequence:\n got %s\nwant %s", got, wantPersistentSeq)
		}
		checkEventTimes(t, evs, before, after)
	})
}
