package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripBinaryTree(t *testing.T) {
	tr := buildBinaryTree(5, 9)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(tr), normalize(got)) {
		t.Fatal("round trip changed the trace")
	}
}

// normalize clears nil-vs-empty slice differences for DeepEqual.
func normalize(tr *Trace) *Trace {
	out := &Trace{NumRoots: tr.NumRoots, Tasks: make([]Task, len(tr.Tasks))}
	copy(out.Tasks, tr.Tasks)
	for i := range out.Tasks {
		if len(out.Tasks[i].Events) == 0 {
			out.Tasks[i].Events = nil
		}
	}
	return out
}

func TestRoundTripRandomTraces(t *testing.T) {
	f := func(structure []uint8) bool {
		rec := NewRecorder()
		root := rec.Root()
		nodes := []*Node{root}
		for _, b := range structure {
			parent := nodes[int(b)%len(nodes)]
			child := rec.Spawn(parent, b%2 == 0, b%5 == 0, int(b))
			child.AddWork(int64(b%31) + 1)
			child.AddWrites(int64(b%7), int64(b%3))
			nodes = append(nodes, child)
			if b%4 == 0 {
				parent.Taskwait()
			}
		}
		tr := rec.Finish()
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(tr), normalize(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOPE!xxxxxxx",
		"truncated": "BOTR2\x02",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace should fail", name)
		}
	}
}

func TestReadTraceRejectsCorruptedStructure(t *testing.T) {
	tr := buildBinaryTree(2, 1)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip bytes across the payload; every corruption must either
	// fail to parse or fail Validate — never yield a silently wrong
	// trace that still differs from the original.
	for i := len(magic); i < len(data); i += 3 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		got, err := ReadTrace(bytes.NewReader(mut))
		if err != nil {
			continue // rejected: good
		}
		// Accepted: must be a structurally valid trace.
		if err := got.Validate(); err != nil {
			t.Fatalf("byte %d: ReadTrace accepted an invalid trace: %v", i, err)
		}
	}
}

func TestFormatIsCompact(t *testing.T) {
	tr := buildBinaryTree(10, 100) // 2047 tasks
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	perTask := float64(buf.Len()) / float64(len(tr.Tasks))
	if perTask > 24 {
		t.Fatalf("%.1f bytes/task, want compact (< 24)", perTask)
	}
}

// TestReadTraceClaimedCountCostsNothing reads a header that claims
// 2^28 tasks with no records behind it. ReadTrace must fail fast and
// small: it checks a count against the bytes present before sizing
// anything from it. Sizing the task list from the header alone
// reserves tens of GiB and kills the process.
func TestReadTraceClaimedCountCostsNothing(t *testing.T) {
	in := binary.AppendUvarint(binary.AppendUvarint([]byte(magic), 0), 1<<28)
	if len(in) != 11 {
		t.Fatalf("input is %d bytes, want 11", len(in))
	}
	const runs = 5
	best := time.Hour
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		_, err := ReadTrace(bytes.NewReader(in))
		if d := time.Since(t0); d < best {
			best = d
		}
		if err == nil {
			t.Fatal("ReadTrace accepted a header with no task records")
		}
	}
	runtime.ReadMemStats(&m1)
	if best >= time.Millisecond {
		t.Errorf("fastest of %d reads took %v, want < 1ms", runs, best)
	}
	if b := (m1.TotalAlloc - m0.TotalAlloc) / runs; b >= 1<<20 {
		t.Errorf("a read allocated %d bytes, want < 1 MiB", b)
	}
}

// readAllocBound is FuzzReadTrace's memory oracle: the bytes one
// ReadTrace may allocate for an input of n bytes. A task record takes
// at least minTaskBytes, an event 2 bytes and a dep 1, so each input
// byte sizes at most a few dozen bytes of Task, Event and dep storage
// plus its copy in the read buffer; the constant covers small inputs.
func readAllocBound(n int) uint64 { return 128*uint64(n) + 64<<10 }

// FuzzReadTrace feeds arbitrary bytes to ReadTrace. It must never
// panic, must allocate within readAllocBound of the input length, and
// any trace it accepts must survive WriteTo and ReadTrace unchanged.
// The seed corpus (testdata/fuzz/FuzzReadTrace) holds the 11-byte
// huge-count header, a task claiming 2^22 events in 8 bytes, and a
// sparselu dep-tied test-class recording.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr, err := ReadTrace(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, readAllocBound(len(in)); got > limit {
			t.Fatalf("%d-byte input allocated %d bytes, bound %d", len(in), got, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatal("WriteTo then ReadTrace changed an accepted trace")
		}
	})
}
