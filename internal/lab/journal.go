package lab

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is the coordinator's write-ahead fleet journal (DESIGN.md
// §14): an append-only, checksum-framed JSONL log of every durable
// state transition — sweep submissions, cancellations, per-cell
// terminal outcomes, and the fleet's lease traffic (grants, renewals,
// completions). Its job is crash recovery: a `botslab
// -fleet` coordinator killed mid-sweep reopens the journal, learns
// which sweeps were unfinished, and resubmits exactly the cells that
// never reached `done`. Cells that DID finish have their records in
// the result store, so the cache layer makes their "re-run" free —
// the journal never needs to persist results, only intent.
//
// Lease events (grant/renew/complete) are observability for
// the wire: replay counts them so a recovery can report how much
// traffic the dead incarnation had seen, and chaos tests can assert
// the journal actually witnessed the sweep. They carry no recovery
// obligation — leases die with the incarnation, and workers holding
// orphaned leases re-adopt or abandon them through the normal
// unknown-worker re-registration path.
//
// Opening a journal compacts it: finished and cancelled sweeps are
// dropped, unfinished ones are rewritten (submission + the terminal
// events seen so far) to a temp file that is renamed over the
// original, so the log stays proportional to live work rather than
// lifetime history. The rename is the commit point — a crash during
// compaction leaves the old journal intact.
//
// All methods are nil-receiver safe: a nil *Journal journals nothing,
// so call sites need no guards.
type Journal struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	nextSweep int
	broken    bool
}

// journalEvent is the wire form of one journal line. One struct for
// every event type keeps replay trivial; unused fields stay omitted.
type journalEvent struct {
	T string `json:"t"` // "sweep" | "cancel" | "job" | "grant" | "renew" | "complete"

	// sweep / cancel
	ID        string    `json:"id,omitempty"` // journal-scoped sweep id ("js<n>")
	Name      string    `json:"name,omitempty"`
	Instances int       `json:"instances,omitempty"`
	Jobs      []JobSpec `json:"jobs,omitempty"`

	// job (terminal transition of one cell)
	Sweep  string `json:"sweep,omitempty"`
	Key    string `json:"key,omitempty"`
	Status string `json:"status,omitempty"`

	// lease traffic
	Lease   string `json:"lease,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	OK      bool   `json:"ok,omitempty"`
}

// RecoveredSweep is one unfinished sweep reconstructed from the
// journal: its original submission plus the terminal outcome of every
// cell that resolved before the crash.
type RecoveredSweep struct {
	JournalID string
	Name      string
	Instances int
	Jobs      []JobSpec
	Terminal  map[string]JobStatus // key → last terminal status seen
}

// Pending returns the cells to resubmit: every job whose key never
// reached `done`. Failed cells are retried on recovery — a restart is
// as good an excuse as any to give a flaky cell another shot — and
// done cells are excluded so a recovered sweep cannot duplicate work
// (their records are in the store regardless).
func (r *RecoveredSweep) Pending() []JobSpec {
	var out []JobSpec
	for _, j := range r.Jobs {
		if r.Terminal[j.Key()] != JobDone {
			out = append(out, j)
		}
	}
	return out
}

// finished reports whether every cell reached a terminal state (done,
// failed, or cancelled) — such a sweep needs no recovery.
func (r *RecoveredSweep) finished() bool {
	for _, j := range r.Jobs {
		if _, ok := r.Terminal[j.Key()]; !ok {
			return false
		}
	}
	return true
}

// Recovery is what a journal replay found: the unfinished sweeps to
// resubmit and the event counts of the previous incarnation.
type Recovery struct {
	Path   string
	Repair *TailRepair // non-nil if the journal's own tail was torn
	Events int         // total events replayed

	Sweeps []*RecoveredSweep // unfinished, in submission order

	// Lease-traffic counts from the dead incarnation, for reporting
	// and for tests asserting the journal witnessed the sweep.
	Grants      int
	Renewals    int
	Completions int
}

// OpenJournal opens (creating if needed) the journal at path, replays
// it into a Recovery, and compacts the file down to unfinished work.
// The same torn-tail tolerance as the result store applies: a crash
// mid-append costs exactly the torn line.
func OpenJournal(path string) (*Journal, *Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("lab: opening journal %s: %w", path, err)
	}
	payloads, repair, err := loadFrames(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	rec := &Recovery{Path: path, Repair: repair}
	if repair != nil {
		fmt.Fprintf(os.Stderr, "lab: journal %s: %s\n", path, repair.Reason)
	}

	sweeps := map[string]*RecoveredSweep{}
	var order []string
	maxID := 0
	for i, raw := range payloads {
		var ev journalEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("lab: journal %s event %d: %w", path, i+1, err)
		}
		rec.Events++
		// A kind not named here (the `requeue` frames of journals
		// written before the dispatcher owned retries) counts as an
		// event and is otherwise ignored.
		switch ev.T {
		case "sweep":
			sw := &RecoveredSweep{
				JournalID: ev.ID, Name: ev.Name, Instances: ev.Instances,
				Jobs: ev.Jobs, Terminal: map[string]JobStatus{},
			}
			if _, dup := sweeps[ev.ID]; !dup {
				order = append(order, ev.ID)
			}
			sweeps[ev.ID] = sw
			var n int
			if _, err := fmt.Sscanf(ev.ID, "js%d", &n); err == nil && n > maxID {
				maxID = n
			}
		case "cancel":
			delete(sweeps, ev.ID)
		case "job":
			if sw := sweeps[ev.Sweep]; sw != nil && ev.Key != "" {
				sw.Terminal[ev.Key] = JobStatus(ev.Status)
			}
		case "grant":
			rec.Grants++
		case "renew":
			rec.Renewals++
		case "complete":
			rec.Completions++
		}
	}
	for _, id := range order {
		sw := sweeps[id]
		if sw == nil || sw.finished() {
			continue
		}
		rec.Sweeps = append(rec.Sweeps, sw)
	}

	// Compact: rewrite only the live sweeps, commit by rename.
	var compacted []byte
	for _, sw := range rec.Sweeps {
		raw, err := json.Marshal(journalEvent{T: "sweep", ID: sw.JournalID, Name: sw.Name, Instances: sw.Instances, Jobs: sw.Jobs})
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("lab: compacting journal %s: %w", path, err)
		}
		compacted = append(compacted, frameOf(raw)...)
		for _, j := range sw.Jobs {
			st, ok := sw.Terminal[j.Key()]
			if !ok {
				continue
			}
			raw, err := json.Marshal(journalEvent{T: "job", Sweep: sw.JournalID, Key: j.Key(), Status: string(st)})
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("lab: compacting journal %s: %w", path, err)
			}
			compacted = append(compacted, frameOf(raw)...)
		}
	}
	f.Close()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, compacted, 0o644); err != nil {
		return nil, nil, fmt.Errorf("lab: compacting journal %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, fmt.Errorf("lab: committing compacted journal %s: %w", path, err)
	}
	f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("lab: reopening journal %s: %w", path, err)
	}
	return &Journal{path: path, f: f, nextSweep: maxID}, rec, nil
}

// Close closes the journal. Later appends become no-ops, so a closed
// journal is safe to leave wired into a still-draining dispatcher.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// appendEvent frames and appends one event. A write failure disables
// the journal (with one stderr warning) rather than failing the
// operation being journaled — the coordinator keeps serving; only
// crash recovery degrades.
func (j *Journal) appendEvent(ev journalEvent) {
	if j == nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.broken {
		return
	}
	if _, err := j.f.Write(frameOf(raw)); err != nil {
		j.broken = true
		fmt.Fprintf(os.Stderr, "lab: journal %s: append failed, journaling disabled: %v\n", j.path, err)
	}
}

// BeginSweep journals a sweep submission and returns its
// journal-scoped ID. IDs continue past every ID seen during replay,
// so incarnations never collide.
func (j *Journal) BeginSweep(name string, instances int, jobs []JobSpec) string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	j.nextSweep++
	id := fmt.Sprintf("js%d", j.nextSweep)
	j.mu.Unlock()
	j.appendEvent(journalEvent{T: "sweep", ID: id, Name: name, Instances: instances, Jobs: jobs})
	return id
}

// SweepCancelled journals a sweep cancellation; recovery drops the
// sweep entirely.
func (j *Journal) SweepCancelled(id string) {
	if id == "" {
		return
	}
	j.appendEvent(journalEvent{T: "cancel", ID: id})
}

// JobDone journals one cell reaching a terminal state.
func (j *Journal) JobDone(sweepID, key string, status JobStatus) {
	if sweepID == "" {
		return
	}
	j.appendEvent(journalEvent{T: "job", Sweep: sweepID, Key: key, Status: string(status)})
}

// LeaseGranted journals one lease grant.
func (j *Journal) LeaseGranted(leaseID, key, workerID string, attempt int) {
	j.appendEvent(journalEvent{T: "grant", Lease: leaseID, Key: key, Worker: workerID, Attempt: attempt})
}

// LeaseRenewed journals one heartbeat renewal.
func (j *Journal) LeaseRenewed(leaseID string) {
	j.appendEvent(journalEvent{T: "renew", Lease: leaseID})
}

// LeaseCompleted journals a lease resolving with a record (ok) or an
// error (not ok).
func (j *Journal) LeaseCompleted(leaseID, key string, ok bool) {
	j.appendEvent(journalEvent{T: "complete", Lease: leaseID, Key: key, OK: ok})
}
