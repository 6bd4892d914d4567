package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bots/internal/omp"
	"bots/internal/sim"
	"bots/internal/trace"
)

// HostInfo records where a measurement was taken, so a store mixing
// records from several machines stays interpretable.
type HostInfo struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	// Hostname is the measuring machine's name, when resolvable.
	Hostname string `json:"hostname,omitempty"`
	// Worker is the fleet worker that executed the cell ("" for
	// in-process runs). With Hostname and Commit it keeps cross-host
	// sweep results honest: every record says who measured it, where,
	// at which revision.
	Worker string `json:"worker,omitempty"`
	// Commit is the VCS revision of the binary, when the build
	// embedded one.
	Commit string `json:"commit,omitempty"`
}

// CurrentHost returns the HostInfo of this process.
func CurrentHost() HostInfo {
	h := HostInfo{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	if name, err := os.Hostname(); err == nil {
		h.Hostname = name
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// SeqSummary is the sequential-reference side of a record: the
// calibration baseline the simulator's speedups are computed against.
type SeqSummary struct {
	ElapsedNS int64   `json:"elapsed_ns"`
	Work      int64   `json:"work"`
	MemBytes  int64   `json:"mem_bytes"`
	Metric    float64 `json:"metric,omitempty"`
}

// SimSummary is the simulated-execution side of a record.
type SimSummary struct {
	Threads    int     `json:"threads"`
	Speedup    float64 `json:"speedup"`
	MakespanNS float64 `json:"makespan_ns"`
	SerialNS   float64 `json:"serial_ns"`
	Steals     int64   `json:"steals"`
	Parks      int64   `json:"parks"`
	Switches   int64   `json:"switches,omitempty"`
	IdleNS     float64 `json:"idle_ns"`
}

func summarizeSim(r sim.Result) *SimSummary {
	return &SimSummary{
		Threads:    r.Threads,
		Speedup:    r.Speedup,
		MakespanNS: r.MakespanNS,
		SerialNS:   r.SerialNS,
		Steals:     r.Steals,
		Parks:      r.Parks,
		Switches:   r.Switches,
		IdleNS:     r.IdleNS,
	}
}

// Record is the machine-readable outcome of one experiment cell: the
// single schema shared by one-off `bots -json` runs, sweep results in
// the store, and the `GET /results` API.
type Record struct {
	// Key is the content address of Spec (JobSpec.Key).
	Key string `json:"key"`
	// Spec is the normalized job configuration.
	Spec JobSpec `json:"spec"`
	// Host and CreatedAt are measurement provenance.
	Host      HostInfo  `json:"host"`
	CreatedAt time.Time `json:"created_at"`
	// Seq is the sequential baseline (shared across cells of one
	// bench/class, re-stated per record for self-containedness).
	Seq SeqSummary `json:"seq"`
	// ElapsedNS is the wall-clock time of the parallel recording run.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Metric is the application throughput-metric basis, when the
	// benchmark reports one (Floorplan's nodes visited).
	Metric float64 `json:"metric,omitempty"`
	// Stats are the real runtime's counters for the recording run.
	Stats *omp.Stats `json:"stats"`
	// Tasks is the number of explicit tasks in the recorded trace.
	Tasks int `json:"tasks"`
	// Analysis is the work/span summary of the recorded task graph
	// (the trace itself is not stored; its analysis is).
	Analysis *trace.Analysis `json:"analysis,omitempty"`
	// Sim is the simulated replay on Spec.Simulate virtual threads.
	Sim *SimSummary `json:"sim"`
	// Verified reports whether the parallel digest passed the
	// benchmark's verification rules; VerifyError carries the failure.
	Verified    bool   `json:"verified"`
	VerifyError string `json:"verify_error,omitempty"`
}

// WriteJSON writes the record as a single JSON object.
func (r *Record) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Matches reports whether the record satisfies a field filter, as
// used by GET /results: empty filter fields match everything.
func (r *Record) Matches(f Filter) bool {
	if f.Bench != "" && r.Spec.Bench != f.Bench {
		return false
	}
	if f.Version != "" && r.Spec.Version != f.Version {
		return false
	}
	if f.Class != "" && r.Spec.Class != f.Class {
		return false
	}
	if f.Threads != 0 && r.Spec.Threads != f.Threads {
		return false
	}
	if f.Key != "" && r.Key != f.Key {
		return false
	}
	if f.Verified != nil && r.Verified != *f.Verified {
		return false
	}
	return true
}

// Filter selects records by exact field match; zero values match all.
type Filter struct {
	Bench    string
	Version  string
	Class    string
	Threads  int
	Key      string
	Verified *bool
}

func (f Filter) String() string {
	return fmt.Sprintf("bench=%s version=%s class=%s threads=%d key=%s",
		f.Bench, f.Version, f.Class, f.Threads, f.Key)
}
