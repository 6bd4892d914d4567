// Package lab is the experiment-orchestration subsystem: declarative
// sweep manifests over the suite's configuration axes (benchmark ×
// version × class × threads × cut-off × runtime cut-off × policy ×
// simulated team × procs × pinning), a bounded-worker dispatcher that runs the expanded
// cells, a persistent content-addressed result store, and an HTTP
// service that accepts sweeps and serves records and rendered report
// figures.
//
// The paper's evaluation is exactly such a grid; the lab makes each
// cell a first-class, cacheable artifact (a Record keyed by the
// canonical content address of its JobSpec) so regenerating a figure
// re-executes nothing that has already been measured.
package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bots/internal/core"
	"bots/internal/omp"
)

// SimOverrides are the simulator cost-model knobs a job may override
// relative to sim.DefaultOverheads. Only the ablation-bearing fields
// are exposed: they are part of the job's content address, so a
// counterfactual run never aliases a baseline record.
type SimOverrides struct {
	// ThreadSwitch enables untied continuation migration (§IV-C
	// counterfactual); SwitchNS is the migrated-resume cost.
	ThreadSwitch bool    `json:"thread_switch,omitempty"`
	SwitchNS     float64 `json:"switch_ns,omitempty"`
	// QueueSerializeNS, when positive, models a central shared task
	// queue instead of per-worker deques.
	QueueSerializeNS float64 `json:"queue_serialize_ns,omitempty"`
}

func (o *SimOverrides) zero() bool {
	return o == nil || (!o.ThreadSwitch && o.SwitchNS == 0 && o.QueueSerializeNS == 0)
}

// JobSpec identifies one experiment cell: everything needed to
// reproduce a single (record + simulate + verify) execution. Its
// canonical form (Normalize) is content-addressed by Key.
type JobSpec struct {
	Bench   string `json:"bench"`
	Version string `json:"version"`
	Class   string `json:"class"`
	// Threads is the recording team size and, unless Simulate is set,
	// the simulated team size.
	Threads int `json:"threads"`
	// CutoffDepth overrides the application depth cut-off (0 = app
	// default).
	CutoffDepth int `json:"cutoff_depth,omitempty"`
	// RuntimeCutoff is the runtime cut-off policy name, resolved
	// against omp's vocabulary (omp.Cutoffs(); "" = none).
	RuntimeCutoff string `json:"runtime_cutoff,omitempty"`
	// Policy is the scheduler's name (omp.Schedulers():
	// workfirst/breadthfirst/centralized/locality; "" = workfirst).
	// It selects both the real runtime scheduler and the simulator's
	// matching queue discipline.
	Policy string `json:"policy,omitempty"`
	// Simulate is the simulated (virtual) team size; 0 means Threads.
	Simulate int `json:"simulate,omitempty"`
	// Procs, when positive, is the GOMAXPROCS value for the recording
	// run — the oversubscription axis (Threads > Procs oversubscribes
	// workers onto fewer cores; 0 keeps the process default). Cells
	// with Procs set run exclusively (GOMAXPROCS is process-global).
	Procs int `json:"procs,omitempty"`
	// Pin wires each team worker to an OS thread for the recording run
	// (omp.WithPinning) — the pinning half of the axis.
	Pin bool `json:"pin,omitempty"`
	// Overheads are optional simulator cost-model overrides.
	Overheads *SimOverrides `json:"overheads,omitempty"`
}

// Normalize returns the canonical form of the spec: defaults made
// explicit where they change identity (Simulate), policy names
// re-rendered through omp's constructors (so spelling variants of one
// configuration — "workfirst(32)" is the default steal batch, its
// canonical name is "workfirst" — share a key), default-valued
// strings collapsed to "", and zero-valued override structs dropped.
// Unresolvable names are left as written for Validate to reject.
// identify calls it once per spec the process has not seen.
func (j JobSpec) Normalize() JobSpec {
	if j.Simulate == 0 {
		j.Simulate = j.Threads
	}
	if c, err := omp.NewCutoff(j.RuntimeCutoff); err == nil {
		j.RuntimeCutoff = c.Name()
	}
	if j.RuntimeCutoff == "none" {
		j.RuntimeCutoff = ""
	}
	if s, err := omp.NewScheduler(j.Policy); err == nil {
		j.Policy = s.Name()
	}
	if j.Policy == omp.DefaultScheduler {
		j.Policy = ""
	}
	if j.Overheads.zero() {
		j.Overheads = nil
	} else {
		o := *j.Overheads
		if !o.ThreadSwitch {
			o.SwitchNS = 0 // SwitchNS is only meaningful with ThreadSwitch
		}
		j.Overheads = &o
	}
	return j
}

// Key returns the job's content address: a short hex digest of the
// normalized spec's canonical serialization. Two specs that describe
// the same cell always share a key.
func (j JobSpec) Key() string {
	_, k := j.identify()
	return k
}

// identify returns the normalized spec and its key: what a cell is.
// Every layer that names a cell (Expand, the dispatcher, the cache,
// the executor, the fleet) asks here, so a spec the process has seen
// before costs one lookup in idMemo instead of a normalization, a
// canonical rendering and a SHA-256. The normalized spec's overrides
// are the caller's own copy.
func (j JobSpec) identify() (JobSpec, string) {
	id := j.id()
	idMemo.mu.RLock()
	e, ok := idMemo.m[id]
	idMemo.mu.RUnlock()
	if !ok {
		e.spec = j.Normalize()
		e.key = e.spec.digest()
		idMemo.mu.Lock()
		if len(idMemo.m) >= maxMemoKeys {
			clear(idMemo.m)
		}
		idMemo.m[id] = e
		idMemo.mu.Unlock()
	}
	if o := e.spec.Overheads; o != nil {
		cp := *o
		e.spec.Overheads = &cp
	}
	return e.spec, e.key
}

// specID is a JobSpec as submitted, flattened into a comparable value:
// the overrides by value, their floats by bit pattern, so a NaN finds
// itself and -0 stays apart from 0.
type specID struct {
	bench, version, class, runtimeCutoff, policy string
	threads, cutoffDepth, simulate, procs        int
	pin, overheads, threadSwitch                 bool
	switchNS, queueSerializeNS                   uint64
}

func (j JobSpec) id() specID {
	id := specID{
		bench: j.Bench, version: j.Version, class: j.Class,
		runtimeCutoff: j.RuntimeCutoff, policy: j.Policy,
		threads: j.Threads, cutoffDepth: j.CutoffDepth,
		simulate: j.Simulate, procs: j.Procs, pin: j.Pin,
	}
	if o := j.Overheads; o != nil {
		id.overheads, id.threadSwitch = true, o.ThreadSwitch
		id.switchNS = math.Float64bits(o.SwitchNS)
		id.queueSerializeNS = math.Float64bits(o.QueueSerializeNS)
	}
	return id
}

// idMemo maps a spec as submitted to its identity. It is sound because
// identity is a pure function of the spec's fields and omp's closed
// scheduler and cut-off vocabularies: a name that resolves (or fails
// to) once does so forever, so unresolved specs are stored too. It is
// process-wide and emptied when it reaches maxMemoKeys entries, so it
// never holds more than a few MB however many distinct cells pass
// through.
var idMemo = struct {
	mu sync.RWMutex
	m  map[specID]identity
}{m: map[specID]identity{}}

type identity struct {
	spec JobSpec // normalized
	key  string
}

const maxMemoKeys = 16384

// digest hashes a normalized spec's canonical serialization; identify
// calls it once per spec the process has not seen.
func (j JobSpec) digest() string {
	var ts int64
	var sw, qs float64
	if j.Overheads != nil {
		if j.Overheads.ThreadSwitch {
			ts = 1
		}
		sw = j.Overheads.SwitchNS
		qs = j.Overheads.QueueSerializeNS
	}
	var pin int64
	if j.Pin {
		pin = 1
	}
	// v2 added the procs/pin execution axes; every field participates
	// unconditionally so two specs differing only in a new axis can
	// never alias (v1 records re-measure under v2 keys). The bytes are
	// exactly fmt's "%s", "%d" and "%g" renderings: every stored key
	// was made that way (TestJobKeyGolden).
	var buf [256]byte
	b := append(buf[:0], "bots-job-v2|bench="...)
	b = append(b, j.Bench...)
	b = append(b, "|version="...)
	b = append(b, j.Version...)
	b = append(b, "|class="...)
	b = append(b, j.Class...)
	b = append(b, "|threads="...)
	b = strconv.AppendInt(b, int64(j.Threads), 10)
	b = append(b, "|cutoff="...)
	b = strconv.AppendInt(b, int64(j.CutoffDepth), 10)
	b = append(b, "|rtcutoff="...)
	b = append(b, j.RuntimeCutoff...)
	b = append(b, "|policy="...)
	b = append(b, j.Policy...)
	b = append(b, "|sim="...)
	b = strconv.AppendInt(b, int64(j.Simulate), 10)
	b = append(b, "|procs="...)
	b = strconv.AppendInt(b, int64(j.Procs), 10)
	b = append(b, "|pin="...)
	b = strconv.AppendInt(b, pin, 10)
	b = append(b, "|ts="...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, "|switchns="...)
	b = strconv.AppendFloat(b, sw, 'g', -1, 64)
	b = append(b, "|qserns="...)
	b = strconv.AppendFloat(b, qs, 'g', -1, 64)
	sum := sha256.Sum256(b)
	var hx [16]byte
	hex.Encode(hx[:], sum[:8])
	return string(hx[:])
}

// Validate checks the spec against the registry and the runtime's
// option vocabulary.
func (j JobSpec) Validate() error {
	b, err := core.Get(j.Bench)
	if err != nil {
		return err
	}
	if !b.HasVersion(j.Version) {
		return fmt.Errorf("lab: %s has no version %q (have %s)", j.Bench, j.Version, strings.Join(b.Versions, ", "))
	}
	if _, err := core.ParseClass(j.Class); err != nil {
		return err
	}
	if j.Threads < 1 {
		return fmt.Errorf("lab: job %s/%s has non-positive thread count %d", j.Bench, j.Version, j.Threads)
	}
	if j.Simulate != 0 && j.Simulate < j.Threads {
		return fmt.Errorf("lab: job %s/%s simulates %d threads but records on a %d-thread team (need simulate >= threads)",
			j.Bench, j.Version, j.Simulate, j.Threads)
	}
	if j.CutoffDepth < 0 {
		return fmt.Errorf("lab: job %s/%s has negative cut-off depth %d", j.Bench, j.Version, j.CutoffDepth)
	}
	if j.Procs < 0 {
		return fmt.Errorf("lab: job %s/%s has negative procs %d", j.Bench, j.Version, j.Procs)
	}
	// Name vocabularies have one source of truth: omp's constructors.
	if _, err := omp.NewCutoff(j.RuntimeCutoff); err != nil {
		return err
	}
	if _, err := omp.NewScheduler(j.Policy); err != nil {
		return err
	}
	return nil
}

// SweepSpec is a declarative manifest describing a grid of experiment
// cells, testground-style: every axis is a list and the sweep is the
// cross product, filtered to versions each benchmark actually has and
// deduplicated by content address.
type SweepSpec struct {
	// Name labels the sweep in status output.
	Name string `json:"name,omitempty"`
	// Instances is the testground-style worker-count wish: at most this
	// many cells of the sweep run concurrently (0 = no per-sweep cap).
	// It is a request, not a reservation — when the pool or the fleet
	// has fewer workers than asked for, the sweep degrades gracefully
	// to the parallelism actually available instead of erroring.
	Instances int `json:"instances,omitempty"`
	// Benches lists benchmark names; the keywords "paper", "extensions"
	// and "all" expand to the corresponding registry sets.
	Benches []string `json:"benches"`
	// Versions lists version names; the keyword "best" selects each
	// benchmark's BestVersion. A version that exists on some selected
	// benchmarks and not others applies only where it exists; a
	// version no selected benchmark has is an error. Empty means
	// ["best"].
	Versions []string `json:"versions,omitempty"`
	// Classes lists input classes. Empty means ["test"].
	Classes []string `json:"classes,omitempty"`
	// Threads is the recording team-size axis. Empty means [1].
	Threads []int `json:"threads"`
	// CutoffDepths is the application cut-off axis (0 = app default).
	// Empty means [0].
	CutoffDepths []int `json:"cutoff_depths,omitempty"`
	// RuntimeCutoffs is the runtime cut-off axis (omp.Cutoffs()
	// names). Empty means ["none"].
	RuntimeCutoffs []string `json:"runtime_cutoffs,omitempty"`
	// Policies is the scheduler axis (omp.Schedulers() names). Empty
	// means ["workfirst"].
	Policies []string `json:"policies,omitempty"`
	// Simulate is the virtual-team-size axis (0 = same as threads).
	// Empty means [0].
	Simulate []int `json:"simulate,omitempty"`
	// Procs is the GOMAXPROCS axis for the recording run (0 = process
	// default). Sweeping Procs against Threads is the oversubscription
	// grid. Empty means [0].
	Procs []int `json:"procs,omitempty"`
	// Pin is the OS-thread-pinning axis. Empty means [false].
	Pin []bool `json:"pin,omitempty"`
	// Overheads optionally applies simulator overrides to every cell.
	Overheads *SimOverrides `json:"overheads,omitempty"`
}

// ReadSweepSpec decodes a JSON manifest, rejecting unknown fields so
// a typoed axis name fails loudly instead of silently shrinking the
// sweep.
func ReadSweepSpec(r io.Reader) (SweepSpec, error) {
	var s SweepSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("lab: decoding sweep manifest: %w", err)
	}
	return s, nil
}

// MaxSweepCells caps the product of a manifest's axis lengths (the
// benchmark axis counted after keyword expansion, every other axis as
// written, duplicates included). Expand refuses a larger grid before
// it builds any cell. The largest manifest under examples/ spans 63
// cells.
const MaxSweepCells = 1 << 16

// Expand resolves the manifest into the deduplicated, deterministic
// list of job cells. The result is sorted by canonical identity so
// identical manifests always expand identically (golden-testable).
func (s SweepSpec) Expand() ([]JobSpec, error) {
	benches, err := s.resolveBenches()
	if err != nil {
		return nil, err
	}
	versions := s.Versions
	if len(versions) == 0 {
		versions = []string{"best"}
	}
	classes := s.Classes
	if len(classes) == 0 {
		classes = []string{"test"}
	}
	for _, c := range classes {
		if _, err := core.ParseClass(c); err != nil {
			return nil, err
		}
	}
	threads := s.Threads
	if len(threads) == 0 {
		threads = []int{1}
	}
	cutoffs := s.CutoffDepths
	if len(cutoffs) == 0 {
		cutoffs = []int{0}
	}
	rtCutoffs := s.RuntimeCutoffs
	if len(rtCutoffs) == 0 {
		rtCutoffs = []string{"none"}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []string{"workfirst"}
	}
	sims := s.Simulate
	if len(sims) == 0 {
		sims = []int{0}
	}
	procs := s.Procs
	if len(procs) == 0 {
		procs = []int{0}
	}
	pins := s.Pin
	if len(pins) == 0 {
		pins = []bool{false}
	}
	// Every factor is at least 1, and the running product is checked
	// against the cap's quotient before each multiplication, so it
	// never exceeds MaxSweepCells and cannot overflow.
	cells := 1
	for _, n := range []int{len(benches), len(versions), len(classes), len(threads), len(cutoffs),
		len(rtCutoffs), len(policies), len(sims), len(procs), len(pins)} {
		if cells > MaxSweepCells/n {
			return nil, fmt.Errorf("lab: sweep %q spans more than %d cells", s.Name, MaxSweepCells)
		}
		cells *= n
	}

	versionUsed := make(map[string]bool, len(versions))
	seen := map[string]bool{}
	var jobs []JobSpec
	for _, b := range benches {
		for _, v := range versions {
			name := v
			if v == "best" {
				name = b.BestVersion
			} else if !b.HasVersion(v) {
				continue
			}
			versionUsed[v] = true
			for _, class := range classes {
				for _, t := range threads {
					for _, cd := range cutoffs {
						for _, rc := range rtCutoffs {
							for _, pol := range policies {
								for _, sim := range sims {
									for _, pr := range procs {
										for _, pin := range pins {
											j, k := JobSpec{
												Bench: b.Name, Version: name, Class: class,
												Threads: t, CutoffDepth: cd, RuntimeCutoff: rc,
												Policy: pol, Simulate: sim,
												Procs: pr, Pin: pin,
												Overheads: s.Overheads,
											}.identify()
											if err := j.Validate(); err != nil {
												return nil, err
											}
											if !seen[k] {
												seen[k] = true
												jobs = append(jobs, j)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, v := range versions {
		if !versionUsed[v] {
			return nil, fmt.Errorf("lab: no selected benchmark has version %q", v)
		}
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].less(jobs[k]) })
	return jobs, nil
}

func (j JobSpec) less(o JobSpec) bool {
	if j.Bench != o.Bench {
		return j.Bench < o.Bench
	}
	if j.Version != o.Version {
		return j.Version < o.Version
	}
	if j.Class != o.Class {
		return j.Class < o.Class
	}
	if j.Threads != o.Threads {
		return j.Threads < o.Threads
	}
	if j.CutoffDepth != o.CutoffDepth {
		return j.CutoffDepth < o.CutoffDepth
	}
	if j.RuntimeCutoff != o.RuntimeCutoff {
		return j.RuntimeCutoff < o.RuntimeCutoff
	}
	if j.Policy != o.Policy {
		return j.Policy < o.Policy
	}
	if j.Simulate != o.Simulate {
		return j.Simulate < o.Simulate
	}
	if j.Procs != o.Procs {
		return j.Procs < o.Procs
	}
	if j.Pin != o.Pin {
		return !j.Pin
	}
	return j.Key() < o.Key()
}

func (s SweepSpec) resolveBenches() ([]*core.Benchmark, error) {
	if len(s.Benches) == 0 {
		return nil, fmt.Errorf("lab: sweep manifest selects no benchmarks")
	}
	seen := map[string]bool{}
	var out []*core.Benchmark
	add := func(bs ...*core.Benchmark) {
		for _, b := range bs {
			if !seen[b.Name] {
				seen[b.Name] = true
				out = append(out, b)
			}
		}
	}
	for _, name := range s.Benches {
		switch name {
		case "paper":
			add(core.Paper()...)
		case "extensions":
			add(core.Extensions()...)
		case "all":
			add(core.All()...)
		default:
			b, err := core.Get(name)
			if err != nil {
				return nil, err
			}
			add(b)
		}
	}
	return out, nil
}
