package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from outside the
// layer. Spans live in memory until the run ends.
type span struct {
	tr     *tracer
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer collects the spans of one workload's traced run.
type tracer struct {
	Workload string `json:"workload"`
	epoch    time.Time

	mu    sync.Mutex
	Spans []*span `json:"spans"`
}

func newTracer(workload string) *tracer {
	return &tracer{Workload: workload, epoch: time.Now()}
}

// start opens a span under parent. On a nil tracer it returns nil,
// and ending a nil span does nothing, so untraced runs pay one nil
// check per call site and never read the clock.
func (t *tracer) start(parent *span, layer, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{tr: t, Layer: layer, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.Spans) + 1
	t.Spans = append(t.Spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.epoch))
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = int64(time.Since(s.tr.epoch))
	}
}

// selfTimes returns each span's self time: its duration minus the
// part of it that its child spans cover. Children may overlap each
// other (concurrent clients, HTTP handlers), so coverage is the union
// of their intervals clipped to the parent.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]*span{}
	for _, s := range t.Spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(t.Spans))
	for _, s := range t.Spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		at := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByLayer sums self time per layer.
func (t *tracer) selfByLayer() map[string]time.Duration {
	self := t.selfTimes()
	out := map[string]time.Duration{}
	for _, s := range t.Spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// writeTraces writes the traced runs to <dir>/trace.json: one object
// per workload, each span with its id, parent, layer, name, start and
// end.
func writeTraces(dir string, traces []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.Marshal(traces)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	return path, os.WriteFile(path, raw, 0o644)
}
