package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format ("BOTR2"): a compact varint encoding so that
// multi-hundred-thousand-task graphs recorded by cmd/botstrace stay
// small on disk and load fast. All integers are unsigned varints
// (zig-zag for the few signed fields); layout:
//
//	magic "BOTR2"
//	numRoots, numTasks
//	per task: parent+1, flags (untied|inline), depth, work,
//	          privateWrites, sharedWrites, captured,
//	          priority (zig-zag), numDeps, then per dep: pred ID,
//	          numEvents, then per event: kind, deltaAt (from the
//	          previous event), child+1 (spawn kinds only)
//
// ReadTrace accepts this layout only; any other header is rejected.

const magic = "BOTR2"

// zigzag encoding for the signed priority field.
func zig(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func zag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteTo serializes the trace in the binary format. It returns the
// number of bytes written.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		m, err := bw.Write(buf[:k])
		n += int64(m)
		return err
	}
	m, err := bw.WriteString(magic)
	n += int64(m)
	if err != nil {
		return n, err
	}
	if err := put(uint64(tr.NumRoots)); err != nil {
		return n, err
	}
	if err := put(uint64(len(tr.Tasks))); err != nil {
		return n, err
	}
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if err := put(uint64(t.Parent + 1)); err != nil {
			return n, err
		}
		var flags uint64
		if t.Untied {
			flags |= 1
		}
		if t.Inline {
			flags |= 2
		}
		if err := put(flags); err != nil {
			return n, err
		}
		for _, v := range []uint64{
			uint64(t.Depth), uint64(t.Work),
			uint64(t.PrivateWrites), uint64(t.SharedWrites),
			uint64(t.Captured), zig(int64(t.Priority)), uint64(len(t.Deps)),
		} {
			if err := put(v); err != nil {
				return n, err
			}
		}
		for _, d := range t.Deps {
			if err := put(uint64(d)); err != nil {
				return n, err
			}
		}
		if err := put(uint64(len(t.Events))); err != nil {
			return n, err
		}
		prev := int64(0)
		for _, e := range t.Events {
			if err := put(uint64(e.Kind)); err != nil {
				return n, err
			}
			if err := put(uint64(e.At - prev)); err != nil {
				return n, err
			}
			prev = e.At
			if e.Kind == EvSpawn || e.Kind == EvSpawnInline {
				if err := put(uint64(e.Child + 1)); err != nil {
					return n, err
				}
			}
		}
	}
	return n, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo and validates it.
// It reads r to the end first, so every count in the input is checked
// against the bytes actually present before anything is sized from it
// (a task record takes at least minTaskBytes, an event two bytes, a
// dep one): memory follows the input, not what its header claims.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if len(data) < len(magic) {
		return nil, fmt.Errorf("trace: reading header: %w", io.ErrUnexpectedEOF)
	}
	if head := data[:len(magic)]; string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", head, magic)
	}
	d := decoder{buf: data[len(magic):]}
	numRoots, numTasks := d.uvarint(), d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("trace: header: %w", d.err)
	}
	const maxTasks = 1 << 28
	if numTasks > maxTasks || numTasks > d.left()/minTaskBytes || numRoots > numTasks {
		return nil, fmt.Errorf("trace: implausible sizes roots=%d tasks=%d in %d bytes", numRoots, numTasks, len(data))
	}
	tr := &Trace{NumRoots: int(numRoots), Tasks: make([]Task, numTasks)}
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		t.ID = int32(i)
		t.Parent = int32(d.uvarint()) - 1
		flags := d.uvarint()
		t.Untied = flags&1 != 0
		t.Inline = flags&2 != 0
		t.Depth = int32(d.uvarint())
		t.Work = int64(d.uvarint())
		t.PrivateWrites = int64(d.uvarint())
		t.SharedWrites = int64(d.uvarint())
		t.Captured = int32(d.uvarint())
		t.Priority = int32(zag(d.uvarint()))
		if n := d.uvarint(); n > 0 {
			if n > d.left() {
				return nil, fmt.Errorf("trace: task %d claims %d deps in %d bytes", i, n, d.left())
			}
			t.Deps = make([]int32, n)
			for j := range t.Deps {
				t.Deps[j] = int32(d.uvarint())
			}
		}
		n := d.uvarint()
		if n > d.left()/2 {
			return nil, fmt.Errorf("trace: task %d claims %d events in %d bytes", i, n, d.left())
		}
		t.Events = make([]Event, n)
		at := int64(0)
		for j := range t.Events {
			ev := Event{Kind: EventKind(d.uvarint()), Child: -1}
			at += int64(d.uvarint())
			ev.At = at
			if ev.Kind == EvSpawn || ev.Kind == EvSpawnInline {
				ev.Child = int32(d.uvarint()) - 1
			}
			t.Events[j] = ev
		}
		if d.err != nil {
			return nil, fmt.Errorf("trace: task %d: %w", i, d.err)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: loaded trace invalid: %w", err)
	}
	return tr, nil
}

// minTaskBytes is the shortest encoding of one task record: ten
// one-byte uvarints, from parent to numEvents.
const minTaskBytes = 10

var errVarintOverflow = errors.New("uvarint overflows 64 bits")

// decoder reads uvarints from an in-memory trace. The first failure
// sticks: every later read returns 0, so a record is checked once, at
// its end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.err = io.ErrUnexpectedEOF
	case n < 0:
		d.err = errVarintOverflow
	default:
		d.buf = d.buf[n:]
	}
	return v
}

// left is the number of bytes not yet read.
func (d *decoder) left() uint64 { return uint64(len(d.buf)) }
