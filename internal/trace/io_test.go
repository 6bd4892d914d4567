package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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
