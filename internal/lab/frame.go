package lab

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Checksummed JSONL framing, shared by the result store and the fleet
// journal (DESIGN.md §14). Each line is
//
//	{"crc":"xxxxxxxx","p":<payload>}
//
// where crc is the CRC-32C (Castagnoli) of the payload bytes exactly
// as they appear between the markers. The framing exists for one
// reason: a process killed mid-append leaves a torn final line, and a
// reload must be able to tell "the tail of an otherwise healthy log
// was cut" (drop it, keep everything else) from "the middle of the
// log is corrupt" (refuse to trust any of it). A checksum makes the
// distinction sharp even when the torn tail happens to be valid JSON
// of a truncated record.
//
// Every line must be framed: a line with no "crc" field, even valid
// JSON, is damage like any other — corruption mid-file, a torn tail
// at the end.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameOf renders one framed line (with trailing newline) for
// payload. The payload is embedded verbatim so the checksum covers
// the same bytes a reader will extract.
func frameOf(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+24)
	out = append(out, `{"crc":"`...)
	out = append(out, fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli))...)
	out = append(out, `","p":`...)
	out = append(out, payload...)
	out = append(out, '}', '\n')
	return out
}

// frameLine is the parsed form of one framed line.
type frameLine struct {
	CRC string          `json:"crc"`
	P   json.RawMessage `json:"p"`
}

// unframe extracts the checksum-verified payload of one framed line.
// ok=false means the line is torn, corrupt or unframed.
func unframe(line []byte) (payload []byte, ok bool) {
	var f frameLine
	if err := json.Unmarshal(line, &f); err != nil || f.CRC == "" {
		return nil, false
	}
	if fmt.Sprintf("%08x", crc32.Checksum(f.P, castagnoli)) != f.CRC {
		return nil, false
	}
	return f.P, true
}

// TailRepair describes a torn final line dropped during a framed-log
// reload (the crash-safety contract: a process killed mid-append
// reopens with every complete record intact).
type TailRepair struct {
	// DroppedBytes is how much of the file tail was truncated away.
	DroppedBytes int64
	// Reason is a human-readable account of what was wrong with it.
	Reason string
}

// loadFrames reads a framed JSONL file, returning every
// intact payload in order. A torn or checksum-failing FINAL line is
// repaired in place — the file is truncated back to the last good
// line — and reported; the same damage anywhere earlier is real
// corruption and fails the load. A final line that is intact but
// lacks its newline (crash between the payload write and nothing —
// O_APPEND writes are single syscalls, but the filesystem may still
// tear them) gets its newline restored so later appends stay
// line-aligned.
func loadFrames(f *os.File, path string) (payloads [][]byte, repair *TailRepair, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("lab: seeking %s: %w", path, err)
	}
	type rawLine struct {
		off      int64 // byte offset of the line start
		data     []byte
		complete bool // ended with '\n'
	}
	var lines []rawLine
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		data, rerr := r.ReadBytes('\n')
		if len(data) > 0 {
			line := rawLine{off: off, data: data, complete: data[len(data)-1] == '\n'}
			off += int64(len(data))
			if line.complete {
				line.data = line.data[:len(line.data)-1]
			}
			if len(line.data) > 0 {
				lines = append(lines, line)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("lab: reading %s: %w", path, rerr)
		}
	}
	for i, line := range lines {
		payload, ok := unframe(line.data)
		last := i == len(lines)-1
		if ok && (line.complete || !last) {
			payloads = append(payloads, payload)
			continue
		}
		if !last {
			return nil, nil, fmt.Errorf("lab: %s line %d: corrupt record mid-file (checksum or JSON failure not at the tail)", path, i+1)
		}
		if ok && !line.complete {
			// Intact payload, missing newline: keep it, restore the
			// terminator (the fd is O_APPEND, so this lands at EOF).
			payloads = append(payloads, payload)
			if _, werr := f.Write([]byte("\n")); werr != nil {
				return nil, nil, fmt.Errorf("lab: repairing %s: %w", path, werr)
			}
			repair = &TailRepair{Reason: "final line missing newline; terminator restored"}
			continue
		}
		// Torn tail: truncate back to the last good line.
		if terr := f.Truncate(line.off); terr != nil {
			return nil, nil, fmt.Errorf("lab: truncating torn tail of %s: %w", path, terr)
		}
		dropped := off - line.off
		repair = &TailRepair{
			DroppedBytes: dropped,
			Reason:       fmt.Sprintf("torn final line (%d bytes) failed checksum/JSON; truncated", dropped),
		}
	}
	return payloads, repair, nil
}
