// Package chaos is the deterministic fault-injection layer of the
// fleet's robustness story (DESIGN.md §14): it perturbs the
// worker↔coordinator wire with latency, request drops, one-way and
// two-way partitions, and clock offset (OffsetClock), all driven by a
// seeded RNG so a chaos experiment replays the same fault schedule
// run after run.
//
// The injection point is Transport, an http.RoundTripper wrapper
// that perturbs individual HTTP requests in-process — the workhorse
// of the Go chaos suite and of botsd's -chaos-* flags.
//
// The one-way partition is deliberately the nasty one: the request
// REACHES the server (which acts on it) but the response is dropped,
// so the client cannot tell "lost" from "done". Every protocol the
// fleet speaks must be idempotent against that ambiguity; the chaos
// suite exists to prove it stays so.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Partition modes, set with SetPartition / Heal.
const (
	PartitionNone   int32 = iota // traffic flows
	PartitionOneWay              // requests arrive, responses are dropped
	PartitionTwoWay              // requests never arrive
)

// Config tunes an Injector. Zero values inject nothing.
type Config struct {
	// Seed seeds the decision RNG; the same seed yields the same
	// decision sequence (given the same request order), which is what
	// makes a chaos run replayable.
	Seed int64
	// Latency is the base injected delay per request (0 = none).
	Latency time.Duration
	// Jitter widens Latency to Latency ± uniform(Jitter).
	Jitter time.Duration
	// DropRate is the probability in [0,1] that a request is dropped.
	// A dropped request is lost on the request side or the response
	// side with equal probability — the latter means the server
	// processed it and only the caller is in the dark.
	DropRate float64
}

// Stats counts what an injector actually did, so a chaos test can
// assert faults genuinely fired instead of passing vacuously.
type Stats struct {
	Requests         int64 // requests seen by the transport
	Delayed          int64 // requests that served an injected delay
	DroppedRequests  int64 // dropped before reaching the server
	DroppedResponses int64 // processed by the server, response dropped
	Partitioned      int64 // refused (or blackholed) by a partition
}

// Injector is the fault source behind Transport.
// All methods are safe for concurrent use; decisions are serialized
// on one seeded RNG so a single-threaded request sequence is exactly
// reproducible.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	partition atomic.Int32

	requests         atomic.Int64
	delayed          atomic.Int64
	droppedRequests  atomic.Int64
	droppedResponses atomic.Int64
	partitioned      atomic.Int64
}

// New returns an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.DropRate < 0 {
		cfg.DropRate = 0
	}
	if cfg.DropRate > 1 {
		cfg.DropRate = 1
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetPartition switches the partition mode (PartitionNone/OneWay/
// TwoWay) for all traffic through this injector.
func (i *Injector) SetPartition(mode int32) { i.partition.Store(mode) }

// Heal clears any partition.
func (i *Injector) Heal() { i.partition.Store(PartitionNone) }

// Stats snapshots the injector's fault counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Requests:         i.requests.Load(),
		Delayed:          i.delayed.Load(),
		DroppedRequests:  i.droppedRequests.Load(),
		DroppedResponses: i.droppedResponses.Load(),
		Partitioned:      i.partitioned.Load(),
	}
}

// decision is one request's fate, drawn atomically from the seeded
// RNG so the (delay, drop) tuple sequence is deterministic.
type decision struct {
	delay        time.Duration
	dropRequest  bool // lose it before the server
	dropResponse bool // server acts, caller never hears
}

func (i *Injector) decide() decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	var d decision
	if i.cfg.Latency > 0 || i.cfg.Jitter > 0 {
		d.delay = i.cfg.Latency
		if i.cfg.Jitter > 0 {
			d.delay += time.Duration(i.rng.Int63n(int64(2*i.cfg.Jitter))) - i.cfg.Jitter
		}
		if d.delay < 0 {
			d.delay = 0
		}
	}
	if i.cfg.DropRate > 0 && i.rng.Float64() < i.cfg.DropRate {
		// A lost request and a lost response are equally likely; only
		// the second leaves the server with work the client will retry.
		if i.rng.Intn(2) == 0 {
			d.dropRequest = true
		} else {
			d.dropResponse = true
		}
	}
	return d
}

// Error is the typed failure surfaced for injected faults, so tests
// (and retry loops) can tell chaos from genuine transport errors
// while still treating both as transient.
type Error struct{ Kind string }

func (e *Error) Error() string { return fmt.Sprintf("chaos: injected fault: %s", e.Kind) }

var (
	errPartitioned  = &Error{Kind: "partitioned"}
	errDropRequest  = &Error{Kind: "request dropped"}
	errDropResponse = &Error{Kind: "response dropped"}
	errConnDropped  = &Error{Kind: "connection dropped"}
)
