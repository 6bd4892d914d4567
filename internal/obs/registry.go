// Package obs is the runtime observability layer: a metrics registry
// of counters, gauges, and log-bucketed histograms rendered in
// Prometheus text exposition format, plus a bounded ring-buffer
// flight recorder of scheduler events (flight.go).
//
// The package is a stdlib-only leaf so every layer of the suite can
// publish into it: internal/omp registers live team gauges and
// counters sampled from its atomic worker stats, internal/serve
// records per-request latency histograms, internal/lab exposes store
// and dispatcher state, and the cmd drivers surface the whole thing
// over GET /metrics.
//
// Design constraints, in order:
//
//   - recording on the hot path is allocation-free: Counter.Inc/Add
//     and Histogram.Record are a few atomic adds, and a flight-recorder
//     Writer.Record is a clock read and a store into the worker's own
//     stage, nothing more (the perf suite gates this as
//     obs/record-allocs ≈ 0);
//   - sampling is pull-based: gauges and sampled counters are
//     closures evaluated only when a scrape renders the registry, so
//     an instrumented-but-unscraped program pays nothing per event;
//   - the metric vocabulary is fixed at registration (names, help,
//     constant labels) so the exposition output is stable and
//     lexically ordered run to run.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a metric series
// at registration.
type Label struct {
	Name, Value string
}

// metricKind is the Prometheus type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family: exactly one of counter,
// hist, or fn backs its value.
type series struct {
	labels  string // rendered `{a="b",c="d"}` suffix, "" when unlabeled
	counter *Counter
	hist    *Histogram
	fn      func() float64
}

// family is one named metric with its type, help text, and series.
type family struct {
	name string
	help string
	kind metricKind
	rows []*series
}

// Registry holds registered metrics and renders them. All
// registration methods are safe for concurrent use, as is rendering
// concurrently with recording.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order; rendering sorts
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family returns (creating if needed) the named family, enforcing
// one-kind-per-name. Registering the same name with a different kind
// panics — metric names are a fixed vocabulary, so a collision is a
// programming error, caught at startup where registration happens.
func (r *Registry) family(name, help string, kind metricKind) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// addSeries appends one labeled series to a family, rejecting
// duplicate label sets (two writers for one exposition row would
// render ambiguous output).
func (f *family) addSeries(s *series) {
	for _, have := range f.rows {
		if have.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", f.name, s.labels))
		}
	}
	f.rows = append(f.rows, s)
}

// Counter registers (or extends with a new label set) a counter
// family and returns the writable counter backing the series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := NewCounter()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindCounter).addSeries(&series{labels: renderLabels(labels), counter: c})
	return c
}

// CounterFunc registers a sampled counter series: fn is evaluated at
// scrape time and must be monotonically non-decreasing (e.g. a view
// over an existing atomic total).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindCounter).addSeries(&series{labels: renderLabels(labels), fn: fn})
}

// GaugeFunc registers a sampled gauge series: fn is evaluated at
// scrape time and may move in either direction.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindGauge).addSeries(&series{labels: renderLabels(labels), fn: fn})
}

// Histogram registers a duration histogram series and returns the
// writable histogram backing it. Samples are nanoseconds; the
// exposition renders bucket bounds and sums in seconds, per
// Prometheus convention.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, h, labels...)
	return h
}

// RegisterHistogram registers an existing histogram (one the caller
// also records into directly, e.g. internal/serve's latency
// histograms) as a series of the named family.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindHistogram).addSeries(&series{labels: renderLabels(labels), hist: h})
}

// snapshotFamilies returns the families sorted by name with their
// rows sorted by label string, for deterministic rendering.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	out := make([]*family, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		rows := append([]*series(nil), f.rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
		out = append(out, &family{name: f.name, help: f.help, kind: f.kind, rows: rows})
	}
	return out
}

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels serializes a label set to its exposition suffix, with
// names sorted and values escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validMetricName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// counterShard is one cache-line-padded accumulation cell.
type counterShard struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotone counter. The common single-writer or
// low-frequency case uses Inc/Add (shard 0); per-worker hot paths use
// AddShard with the worker's slot so concurrent writers never share a
// cache line. Value sums the shards.
type Counter struct {
	shards []counterShard
}

// counterShards is the fixed shard count: enough to separate the
// worker counts this suite runs (teams size GOMAXPROCS), small enough
// that Value stays a trivial sweep. AddShard wraps modulo this.
const counterShards = 64

// NewCounter returns a counter usable standalone (most callers get
// one from Registry.Counter instead).
func NewCounter() *Counter {
	return &Counter{shards: make([]counterShard, counterShards)}
}

// Inc adds one.
func (c *Counter) Inc() { c.shards[0].n.Add(1) }

// Add adds delta (which must be non-negative; counters are monotone).
func (c *Counter) Add(delta int64) { c.shards[0].n.Add(delta) }

// AddShard adds delta on the given shard (wrapped modulo the shard
// count), so per-worker writers do not contend on one cache line.
func (c *Counter) AddShard(shard int, delta int64) {
	c.shards[shard&(counterShards-1)].n.Add(delta)
}

// Value returns the summed count. Like every multi-word read in this
// package it is a consistent per-shard, not cross-shard, snapshot.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}
