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

// TestFlightWriteJSON: the dump is valid bots-flightrec/v1 JSON with
// string event kinds and sorted timestamps.
func TestFlightWriteJSON(t *testing.T) {
	fr := NewFlightRecorder(2, 16)
	fr.Record(0, EvPark, 0)
	fr.Record(1, EvSteal, 2)
	fr.Record(-1, EvSubmit, 1)
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
			Worker int    `json:"worker"`
			Kind   string `json:"kind"`
			Arg    int64  `json:"arg"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(b.String()), &d); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, b.String())
	}
	if d.Schema != FlightRecorderSchema || d.Workers != 2 || d.Dropped != 0 {
		t.Fatalf("header = %+v", d)
	}
	if len(d.Events) != 3 {
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
	}
	for _, k := range []string{"park", "steal", "submit"} {
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
