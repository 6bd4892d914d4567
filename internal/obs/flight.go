package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// FlightRecorderSchema identifies the JSON dump layout.
const FlightRecorderSchema = "bots-flightrec/v2"

// EventKind classifies one scheduler event in the flight recorder.
type EventKind uint8

const (
	// EvSpawn: a deferred task became runnable (queued); Arg is its depth.
	EvSpawn EventKind = iota
	// EvSteal: a worker took a task queued for another worker; Arg is
	// the stolen task's depth.
	EvSteal
	// EvPark: a worker exhausted its spin budget and blocked on the
	// team doorbell; Arg is the team live-task count at the park.
	EvPark
	// EvWake: a parked worker resumed; Arg is the park duration in ns.
	EvWake
	// EvSubmit: a persistent-team submission was accepted (recorded on
	// the external ring — the submitter is not a team worker); Arg is
	// the inbox length after the append.
	EvSubmit
	// EvFinish: a deferred task completed; Arg is its depth.
	EvFinish

	evKinds
)

var evKindNames = [evKinds]string{"spawn", "steal", "park", "wake", "submit", "finish"}

// String returns the kind's dump vocabulary name.
func (k EventKind) String() string {
	if int(k) < len(evKindNames) {
		return evKindNames[k]
	}
	return "unknown"
}

// Event is one recorded scheduler event.
type Event struct {
	// TimeNS is wall-clock nanoseconds: the recorder's wall-clock base
	// (time.Now at construction) plus the monotonic time elapsed since
	// it, so a wall-clock step after construction cannot reorder
	// events. FlightRecorder.Record reads the clock per event. A
	// Writer times a batch instead: one read when the first event of
	// an empty stage is recorded (open), one when the stage is
	// published (publish), and event i of n gets
	// open + (publish-open)·i/(n-1). Each ring's times never decrease.
	TimeNS int64
	// SpanNS bounds TimeNS's error: the event happened within
	// [TimeNS-SpanNS, TimeNS+SpanNS]. It is the batch's publish-open
	// for a Writer batch of two or more events, and 0 for a one-event
	// batch and for FlightRecorder.Record.
	SpanNS int64
	Worker int       // team slot; -1 for external (submitter) events
	Kind   EventKind //
	Arg    int64     // kind-specific payload, see the kind constants
}

// clock is a recorder's single time base; see Event.TimeNS.
type clock struct {
	base   time.Time // carries the monotonic reading
	baseNS int64     // base.UnixNano()
}

func newClock() clock {
	base := time.Now()
	return clock{base: base, baseNS: base.UnixNano()}
}

// now reads the monotonic clock once (time.Since on a monotonic base)
// instead of time.Now's wall plus monotonic pair.
func (c *clock) now() int64 { return c.baseNS + int64(time.Since(c.base)) }

// evRing is one bounded drop-oldest event ring. A worker's Writer
// publishes into it once per batch; the external ring takes every
// Record from non-worker writers (request submitters) one event at a
// time. The mutex serializes both, and makes Snapshot race-free
// against writers, which is what lets a stall dump read the rings
// while the team is live. The pad rounds the ring to one cache line
// (TestRingLayout), so the external ring's per-event writes never
// invalidate a neighbouring ring's mutex.
type evRing struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // total events ever recorded on this ring
	_   [24]byte
}

// publish appends a batch in order. A batch longer than the ring
// keeps only its newest len(buf) events, as recording them one by one
// would.
func (r *evRing) publish(evs []Event) {
	r.mu.Lock()
	c := uint64(len(r.buf))
	start := r.n
	r.n += uint64(len(evs))
	if extra := uint64(len(evs)); extra > c {
		start += extra - c
		evs = evs[extra-c:]
	}
	k := copy(r.buf[start%c:], evs)
	copy(r.buf, evs[k:])
	r.mu.Unlock()
}

// snapshot appends the ring's retained events, oldest first.
func (r *evRing) snapshot(out []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	cap64 := uint64(len(r.buf))
	start := uint64(0)
	if r.n > cap64 {
		start = r.n - cap64
	}
	for i := start; i < r.n; i++ {
		out = append(out, r.buf[i%cap64])
	}
	return out
}

// FlightRecorder is a bounded ring-buffer recorder of scheduler
// events: one drop-oldest ring per team worker plus one external ring
// for submitter-side events. Recording is allocation-free (the rings
// are sized at construction). A worker records through its own Writer
// (two monotonic clock reads per batch, no lock per event); Record,
// for everyone else, takes a clock read and a mutex round-trip per
// event. It is off unless a team was built with
// omp.WithFlightRecorder, so the default hot path pays only a nil
// check.
type FlightRecorder struct {
	rings []evRing // workers rings, then one external ring
	clock
}

// NewFlightRecorder sizes a recorder for a team of `workers`, keeping
// the most recent perWorker events per worker (and per the external
// submit ring). perWorker < 16 is raised to 16.
func NewFlightRecorder(workers, perWorker int) *FlightRecorder {
	if workers < 1 {
		workers = 1
	}
	if perWorker < 16 {
		perWorker = 16
	}
	fr := &FlightRecorder{rings: make([]evRing, workers+1), clock: newClock()}
	for i := range fr.rings {
		fr.rings[i].buf = make([]Event, perWorker)
	}
	return fr
}

// Workers returns the per-worker ring count (excluding the external
// ring).
func (fr *FlightRecorder) Workers() int { return len(fr.rings) - 1 }

// ring maps a worker id to its ring, folding out-of-range ids onto
// the external ring as worker -1.
func (fr *FlightRecorder) ring(worker int) (*evRing, int) {
	ext := len(fr.rings) - 1
	if worker >= 0 && worker < ext {
		return &fr.rings[worker], worker
	}
	return &fr.rings[ext], -1
}

// Record appends one event. worker < 0 (or >= the team size) lands on
// the external ring.
func (fr *FlightRecorder) Record(worker int, kind EventKind, arg int64) {
	r, worker := fr.ring(worker)
	r.publish([]Event{{TimeNS: fr.now(), Worker: worker, Kind: kind, Arg: arg}})
}

// writerStage is how many events a Writer holds before it publishes
// them in one batch, so a live dump lags a running worker by fewer.
const writerStage = 32

// Writer is a single-writer handle on one worker's ring. Record
// stages an event's kind and arg inside the handle with no
// synchronization, reading the clock only for the first event of an
// empty stage; staged events reach the ring — and Snapshot — in one
// batch under the ring's mutex when the stage fills or the owner calls
// Flush, which times them (see Event.TimeNS). An owner that is about
// to block or exit must Flush first, so a dump taken while it waits
// shows everything it did, and its last event's time is close to the
// block.
//
// A Writer must not be used by two goroutines at once. Separate
// Writers on one ring are safe (each batch is published under the
// mutex); their batches interleave, and Snapshot's sort restores time
// order.
type Writer struct {
	ring   *evRing
	now    func() int64 // the recorder's clock; tests wrap it to count reads
	worker int
	open   int64 // clock read at the stage's first Record
	n      int   // staged events
	stage  [writerStage]Event
}

// Writer returns a new handle recording on worker's ring (the
// external ring for an out-of-range id, as for Record).
func (fr *FlightRecorder) Writer(worker int) *Writer {
	r, worker := fr.ring(worker)
	return &Writer{ring: r, now: fr.now, worker: worker}
}

// Record stages one event, publishing the stage when it fills.
func (w *Writer) Record(kind EventKind, arg int64) {
	if w.n == 0 {
		w.open = w.now()
	}
	ev := &w.stage[w.n]
	ev.Kind, ev.Arg = kind, arg
	if w.n++; w.n == len(w.stage) {
		w.Flush()
	}
}

// Flush times the staged events and publishes them into the ring.
// Event i of n gets open + span·i/(n-1), span = publish-open, computed
// as a whole step plus a carried remainder: one division per batch
// instead of one per event, which BenchmarkFlightRecord/writer puts at
// 3.7–4.0 against 4.4–4.6 ns/event (6 interleaved runs, 2-CPU EPYC).
func (w *Writer) Flush() {
	n := int64(w.n)
	if n == 0 {
		return
	}
	var span, step, rem int64
	if n > 1 {
		span = w.now() - w.open
		step, rem = span/(n-1), span%(n-1)
	}
	t, carry := w.open, int64(0)
	for i := range w.stage[:n] {
		ev := &w.stage[i]
		ev.TimeNS, ev.SpanNS, ev.Worker = t, span, w.worker
		t += step
		if carry += rem; carry >= n-1 {
			carry -= n - 1
			t++
		}
	}
	w.ring.publish(w.stage[:n])
	w.n = 0
}

// Snapshot returns the retained events of every ring, merged and
// sorted by timestamp. Safe concurrently with recording; each ring is
// copied consistently, the merge is a point-in-time cut per ring.
func (fr *FlightRecorder) Snapshot() []Event {
	var out []Event
	for i := range fr.rings {
		out = fr.rings[i].snapshot(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TimeNS < out[j].TimeNS })
	return out
}

// Dropped returns the total events evicted by ring wrap so far.
func (fr *FlightRecorder) Dropped() int64 {
	var dropped int64
	for i := range fr.rings {
		r := &fr.rings[i]
		r.mu.Lock()
		if c := uint64(len(r.buf)); r.n > c {
			dropped += int64(r.n - c)
		}
		r.mu.Unlock()
	}
	return dropped
}

// eventJSON is the dump form of one event.
type eventJSON struct {
	TimeNS int64  `json:"t_ns"`
	SpanNS int64  `json:"span_ns"`
	Worker int    `json:"worker"`
	Kind   string `json:"kind"`
	Arg    int64  `json:"arg"`
}

// dumpJSON is the bots-flightrec/v2 document.
type dumpJSON struct {
	Schema  string      `json:"schema"`
	Workers int         `json:"workers"`
	Dropped int64       `json:"dropped"`
	Events  []eventJSON `json:"events"`
}

// WriteJSON dumps the recorder's current timeline as a
// bots-flightrec/v2 JSON document: schema, worker count, drop-oldest
// eviction count, and the merged time-sorted event list, each event
// with its time and that time's error bound (t_ns, span_ns; see
// Event).
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	evs := fr.Snapshot()
	d := dumpJSON{
		Schema:  FlightRecorderSchema,
		Workers: fr.Workers(),
		Dropped: fr.Dropped(),
		Events:  make([]eventJSON, len(evs)),
	}
	for i, ev := range evs {
		d.Events[i] = eventJSON{TimeNS: ev.TimeNS, SpanNS: ev.SpanNS, Worker: ev.Worker, Kind: ev.Kind.String(), Arg: ev.Arg}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
