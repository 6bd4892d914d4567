package trace

import (
	"bufio"
	"encoding/binary"
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
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", head, magic)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	numRoots, err := get()
	if err != nil {
		return nil, fmt.Errorf("trace: numRoots: %w", err)
	}
	numTasks, err := get()
	if err != nil {
		return nil, fmt.Errorf("trace: numTasks: %w", err)
	}
	const maxTasks = 1 << 28
	if numTasks > maxTasks || numRoots > numTasks {
		return nil, fmt.Errorf("trace: implausible sizes roots=%d tasks=%d", numRoots, numTasks)
	}
	tr := &Trace{NumRoots: int(numRoots), Tasks: make([]Task, numTasks)}
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		t.ID = int32(i)
		parent, err := get()
		if err != nil {
			return nil, fmt.Errorf("trace: task %d parent: %w", i, err)
		}
		t.Parent = int32(parent) - 1
		flags, err := get()
		if err != nil {
			return nil, err
		}
		t.Untied = flags&1 != 0
		t.Inline = flags&2 != 0
		fields := []*int64{nil, &t.Work, &t.PrivateWrites, &t.SharedWrites}
		depth, err := get()
		if err != nil {
			return nil, err
		}
		t.Depth = int32(depth)
		for _, f := range fields[1:] {
			v, err := get()
			if err != nil {
				return nil, err
			}
			*f = int64(v)
		}
		captured, err := get()
		if err != nil {
			return nil, err
		}
		t.Captured = int32(captured)
		prio, err := get()
		if err != nil {
			return nil, err
		}
		t.Priority = int32(zag(prio))
		numDeps, err := get()
		if err != nil {
			return nil, err
		}
		if numDeps > maxTasks {
			return nil, fmt.Errorf("trace: task %d has implausible dep count %d", i, numDeps)
		}
		if numDeps > 0 {
			t.Deps = make([]int32, numDeps)
			for j := range t.Deps {
				d, err := get()
				if err != nil {
					return nil, err
				}
				t.Deps[j] = int32(d)
			}
		}
		numEvents, err := get()
		if err != nil {
			return nil, err
		}
		if numEvents > maxTasks {
			return nil, fmt.Errorf("trace: task %d has implausible event count %d", i, numEvents)
		}
		t.Events = make([]Event, numEvents)
		at := int64(0)
		for j := range t.Events {
			kind, err := get()
			if err != nil {
				return nil, err
			}
			delta, err := get()
			if err != nil {
				return nil, err
			}
			at += int64(delta)
			ev := Event{At: at, Kind: EventKind(kind), Child: -1}
			if ev.Kind == EvSpawn || ev.Kind == EvSpawnInline {
				child, err := get()
				if err != nil {
					return nil, err
				}
				ev.Child = int32(child) - 1
			}
			t.Events[j] = ev
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: loaded trace invalid: %w", err)
	}
	return tr, nil
}
