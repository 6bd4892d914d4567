package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestFlightRingWrap: a ring past capacity drops oldest and keeps the
// newest perWorker events in order.
func TestFlightRingWrap(t *testing.T) {
	const cap = 16
	fr := NewFlightRecorder(1, cap)
	const total = 3*cap + 5
	for i := 0; i < total; i++ {
		fr.Record(0, EvSpawn, int64(i))
	}
	evs := fr.Snapshot()
	if len(evs) != cap {
		t.Fatalf("retained %d events, want %d", len(evs), cap)
	}
	// Drop-oldest: the retained args are the last cap values, in
	// recording order (timestamps are non-decreasing so the sort is
	// stable w.r.t. one ring).
	for i, ev := range evs {
		if want := int64(total - cap + i); ev.Arg != want {
			t.Fatalf("event %d arg = %d, want %d", i, ev.Arg, want)
		}
		if ev.Worker != 0 || ev.Kind != EvSpawn {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if got := fr.Dropped(); got != total-cap {
		t.Fatalf("Dropped() = %d, want %d", got, total-cap)
	}
}

// TestFlightExternalRing: out-of-range worker ids land on the
// external ring as worker -1.
func TestFlightExternalRing(t *testing.T) {
	fr := NewFlightRecorder(2, 16)
	fr.Record(-1, EvSubmit, 1)
	fr.Record(99, EvSubmit, 2)
	fr.Record(1, EvSpawn, 3)
	evs := fr.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot len = %d", len(evs))
	}
	var external int
	for _, ev := range evs {
		if ev.Kind == EvSubmit {
			external++
			if ev.Worker != -1 {
				t.Fatalf("submit event worker = %d, want -1", ev.Worker)
			}
		}
	}
	if external != 2 {
		t.Fatalf("external events = %d, want 2", external)
	}
}

// TestFlightWriterStage: a Writer's events are invisible to Snapshot
// until a Flush or a full stage publishes them, and publish in order.
func TestFlightWriterStage(t *testing.T) {
	fr := NewFlightRecorder(2, 256)
	w := fr.Writer(1)
	for i := 0; i < writerStage-1; i++ {
		w.Record(EvSpawn, int64(i))
	}
	if got := len(fr.Snapshot()); got != 0 {
		t.Fatalf("%d staged events visible before publish", got)
	}
	w.Record(EvSpawn, writerStage-1) // fills the stage
	if got := len(fr.Snapshot()); got != writerStage {
		t.Fatalf("after a full stage: %d events visible, want %d", got, writerStage)
	}
	w.Record(EvPark, 7)
	if got := len(fr.Snapshot()); got != writerStage {
		t.Fatalf("restaged event visible before Flush: %d events", got)
	}
	w.Flush()
	w.Flush() // an empty stage publishes nothing
	evs := fr.Snapshot()
	if len(evs) != writerStage+1 {
		t.Fatalf("after Flush: %d events, want %d", len(evs), writerStage+1)
	}
	for i, ev := range evs[:writerStage] {
		if ev.Worker != 1 || ev.Kind != EvSpawn || ev.Arg != int64(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if last := evs[writerStage]; last.Kind != EvPark || last.Arg != 7 {
		t.Fatalf("last event = %+v", last)
	}
	if ext := fr.Writer(5); ext.worker != -1 {
		t.Fatalf("out-of-range Writer worker = %d, want -1 (external)", ext.worker)
	}
}

// TestFlightWriterBatchTimes pins how a Writer times a batch: the
// first event at the clock read its Record takes (open), the last at
// the read its publish takes, event i of n at open + span·i/(n-1),
// every event with SpanNS = publish-open (0 for a one-event batch),
// and times that never decrease across batches.
func TestFlightWriterBatchTimes(t *testing.T) {
	fr := NewFlightRecorder(1, 1024)
	w := fr.Writer(0)
	var reads []int64 // what the writer's clock returned
	now := w.now
	w.now = func() int64 {
		v := now()
		reads = append(reads, v)
		return v
	}
	var prev int64
	seen := 0
	for _, n := range []int{1, 2, 5, writerStage, 3, 1} {
		reads = reads[:0]
		before := fr.now()
		w.Record(EvSpawn, 0)
		after := fr.now()
		for i := 1; i < n; i++ {
			w.Record(EvFinish, int64(i))
		}
		w.Flush()
		all := fr.Snapshot()
		if len(all) != seen+n {
			t.Fatalf("batch of %d: %d events visible, want %d", n, len(all), seen+n)
		}
		evs := all[seen:]
		seen += n
		if evs[0].TimeNS < before || evs[0].TimeNS > after {
			t.Errorf("batch of %d: first event at %d, outside its Record's [%d, %d]", n, evs[0].TimeNS, before, after)
		}
		open, publish := reads[0], reads[len(reads)-1]
		if open < prev {
			t.Errorf("batch of %d opens at %d, before the previous batch's %d", n, open, prev)
		}
		span := publish - open
		for i, ev := range evs {
			want := open
			if n > 1 {
				want += span * int64(i) / int64(n-1)
			}
			if ev.TimeNS != want || ev.SpanNS != span || ev.Worker != 0 {
				t.Errorf("batch of %d, event %d = %+v, want TimeNS %d SpanNS %d worker 0 (open %d, publish %d)",
					n, i, ev, want, span, open, publish)
			}
			if ev.TimeNS < prev {
				t.Errorf("batch of %d, event %d at %d, before the previous %d", n, i, ev.TimeNS, prev)
			}
			prev = ev.TimeNS
		}
		if n == 1 && evs[0].SpanNS != 0 {
			t.Errorf("one-event batch span = %d, want 0", evs[0].SpanNS)
		}
	}
}

// TestFlightWriterClockReads: a Writer reads the clock at most twice
// per batch — once when an empty stage takes its first event, once at
// publish — however many events the batch holds.
func TestFlightWriterClockReads(t *testing.T) {
	fr := NewFlightRecorder(1, 1024)
	w := fr.Writer(0)
	reads := 0
	now := w.now
	w.now = func() int64 {
		reads++
		return now()
	}
	for batch := 0; batch < 3; batch++ {
		reads = 0
		for i := 0; i < writerStage; i++ {
			w.Record(EvSpawn, int64(i)) // the last one publishes
		}
		if reads > 2 {
			t.Fatalf("full stage %d: %d clock reads, want at most 2", batch, reads)
		}
	}
	for _, tc := range []struct{ events, want int }{{0, 0}, {1, 1}, {7, 2}} {
		reads = 0
		for i := 0; i < tc.events; i++ {
			w.Record(EvFinish, int64(i))
		}
		w.Flush()
		if reads != tc.want {
			t.Errorf("%d events then Flush: %d clock reads, want %d", tc.events, reads, tc.want)
		}
	}
}

// TestFlightWriterWrap: batches that wrap the ring — including one
// longer than the ring — keep drop-oldest order and an exact Dropped
// count, as recording the same events one by one does.
func TestFlightWriterWrap(t *testing.T) {
	for _, flushEvery := range []int{1, 5, writerStage} {
		const ring = 16
		fr := NewFlightRecorder(1, ring)
		ref := NewFlightRecorder(1, ring)
		w := fr.Writer(0)
		const total = 5*writerStage + 3
		for i := 0; i < total; i++ {
			w.Record(EvFinish, int64(i))
			ref.Record(0, EvFinish, int64(i))
			if (i+1)%flushEvery == 0 {
				w.Flush()
			}
		}
		w.Flush()
		evs := fr.Snapshot()
		if len(evs) != ring {
			t.Fatalf("flush every %d: retained %d events, want %d", flushEvery, len(evs), ring)
		}
		for i, ev := range evs {
			if want := int64(total - ring + i); ev.Arg != want {
				t.Fatalf("flush every %d: event %d arg = %d, want %d", flushEvery, i, ev.Arg, want)
			}
		}
		if got, want := fr.Dropped(), ref.Dropped(); got != want || got != total-ring {
			t.Fatalf("flush every %d: Dropped() = %d, one-by-one %d, want %d", flushEvery, got, want, total-ring)
		}
	}
}

// TestRingLayout: rings sit in one slice, so each must fill whole
// cache lines or a neighbour's mutex word can share a line with it.
func TestRingLayout(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(evRing{}); sz%line != 0 {
		t.Errorf("sizeof(evRing) = %d, want a multiple of %d", sz, line)
	}
}

// TestFlightConcurrent hammers every ring (including the external
// one) from concurrent writers — Record callers and Writer handles —
// while snapshots run: meaningful under -race; also checks no events
// are lost short of capacity.
func TestFlightConcurrent(t *testing.T) {
	const workers, per = 4, 1000
	fr := NewFlightRecorder(workers, per)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fr.Snapshot()
				fr.Dropped()
			}
		}
	}()
	// Every ring takes per/4 events from a Record caller and per/4
	// from a Writer, concurrently; the Writers flush at odd points.
	var writers sync.WaitGroup
	for w := 0; w < workers+1; w++ {
		id := w
		if w == workers {
			id = -1 // external writers
		}
		writers.Add(2)
		go func() {
			defer writers.Done()
			for i := 0; i < per/4; i++ {
				fr.Record(id, EvSpawn, int64(i))
			}
		}()
		go func() {
			defer writers.Done()
			h := fr.Writer(id)
			for i := 0; i < per/4; i++ {
				h.Record(EvFinish, int64(i))
				if i%7 == 0 {
					h.Flush()
				}
			}
			h.Flush()
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := len(fr.Snapshot()); got != (workers+1)*per/2 {
		t.Fatalf("retained %d events, want %d", got, (workers+1)*per/2)
	}
	if got := fr.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d short of capacity", got)
	}
}

// BenchmarkFlightRecord reports ns per event for the two record
// paths: FlightRecorder.Record (one lock round-trip per event, the
// external ring's path) and a worker's Writer (staged, one batch
// publish per writerStage events).
func BenchmarkFlightRecord(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		fr := NewFlightRecorder(1, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr.Record(0, EvSpawn, int64(i))
		}
	})
	b.Run("writer", func(b *testing.B) {
		fr := NewFlightRecorder(1, 4096)
		w := fr.Writer(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Record(EvSpawn, int64(i))
		}
		w.Flush()
	})
}

// TestFlightWriteJSON: the dump is valid bots-flightrec/v2 JSON with
// string event kinds, sorted timestamps and a span_ns error bound on
// every event: 0 on the external ring, never negative.
func TestFlightWriteJSON(t *testing.T) {
	fr := NewFlightRecorder(2, 16)
	fr.Record(0, EvPark, 0)
	fr.Record(-1, EvSubmit, 1)
	w := fr.Writer(1)
	w.Record(EvSteal, 2)
	w.Record(EvFinish, 2)
	w.Flush()
	var b strings.Builder
	if err := fr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Schema  string `json:"schema"`
		Workers int    `json:"workers"`
		Dropped int64  `json:"dropped"`
		Events  []struct {
			TimeNS int64  `json:"t_ns"`
			SpanNS *int64 `json:"span_ns"`
			Worker int    `json:"worker"`
			Kind   string `json:"kind"`
			Arg    int64  `json:"arg"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(b.String()), &d); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, b.String())
	}
	if d.Schema != "bots-flightrec/v2" || d.Workers != 2 || d.Dropped != 0 {
		t.Fatalf("header = %+v", d)
	}
	if len(d.Events) != 4 {
		t.Fatalf("events = %d", len(d.Events))
	}
	kinds := map[string]bool{}
	var prev int64
	for _, ev := range d.Events {
		kinds[ev.Kind] = true
		if ev.TimeNS < prev {
			t.Fatalf("events not time-sorted")
		}
		prev = ev.TimeNS
		switch {
		case ev.SpanNS == nil:
			t.Fatalf("%s event has no span_ns", ev.Kind)
		case *ev.SpanNS < 0:
			t.Errorf("%s event span_ns = %d, want >= 0", ev.Kind, *ev.SpanNS)
		case ev.Worker == -1 && *ev.SpanNS != 0:
			t.Errorf("external %s event span_ns = %d, want 0", ev.Kind, *ev.SpanNS)
		}
	}
	for _, k := range []string{"park", "steal", "submit", "finish"} {
		if !kinds[k] {
			t.Fatalf("missing kind %q in %v", k, kinds)
		}
	}
}

// TestEventKindNames: every kind has a distinct vocabulary name.
func TestEventKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := EventKind(0); k < evKinds; k++ {
		n := k.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("kind %d name %q", k, n)
		}
		seen[n] = true
	}
}
