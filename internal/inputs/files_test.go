package inputs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestProteinsRoundTrip(t *testing.T) {
	orig := Proteins(12, 5, 120, 77)
	var buf bytes.Buffer
	if err := WriteProteins(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProteins(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("protein round trip changed sequences")
	}
}

func TestReadProteinsFormats(t *testing.T) {
	in := `
>first
ARND CQEG
hilk
>second
MFPSTWYV
`
	seqs, err := ReadProteins(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d sequences, want 2", len(seqs))
	}
	if string(seqs[0]) != "ARNDCQEGHILK" {
		t.Fatalf("seq1 = %q (whitespace/case folding broken)", seqs[0])
	}
	if string(seqs[1]) != "MFPSTWYV" {
		t.Fatalf("seq2 = %q", seqs[1])
	}
}

// TestReadProteinsLongLine reads back one 2 MiB sequence line, past
// bufio.Scanner's 64 KiB default token limit: the reader's buffer,
// which starts empty, grows to fit it under its 16 MiB cap.
func TestReadProteinsLongLine(t *testing.T) {
	seq := bytes.Repeat([]byte("ARNDCQEGHILKMFPS"), 2<<20/16)
	seqs, err := ReadProteins(strings.NewReader(">long\n" + string(seq) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || !bytes.Equal(seqs[0], seq) {
		t.Fatalf("read back %d sequences, want the one %d-residue line", len(seqs), len(seq))
	}
}

func TestReadProteinsErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"invalid residue": ">a\nARNDX\n",
		"empty sequence":  ">a\n>b\nARND\n",
	}
	for name, in := range cases {
		if _, err := ReadProteins(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadProteins should fail", name)
		}
	}
}

func TestFloorplanCellsRoundTrip(t *testing.T) {
	orig := FloorplanCells(9, 5, 42)
	var buf bytes.Buffer
	if err := WriteFloorplanCells(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFloorplanCells(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("floorplan round trip changed cells")
	}
}

func TestReadFloorplanCellsWithComments(t *testing.T) {
	in := `
2          # two cells
1          # one alternative
3 4
2          # two alternatives
1 2
2 1
`
	cells, err := ReadFloorplanCells(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || len(cells[0].Alts) != 1 || len(cells[1].Alts) != 2 {
		t.Fatalf("parsed %+v", cells)
	}
	if cells[0].Alts[0] != [2]int{3, 4} {
		t.Fatalf("cell 1 = %v", cells[0].Alts)
	}
}

func TestReadFloorplanCellsErrors(t *testing.T) {
	cases := map[string]string{
		"truncated":   "3\n1\n2 2\n",
		"zero shape":  "1\n1\n0 4\n",
		"bad token":   "1\n1\nx y\n",
		"trailing":    "1\n1\n2 2\n99\n",
		"silly count": "9999\n",
	}
	for name, in := range cases {
		if _, err := ReadFloorplanCells(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadFloorplanCells should fail", name)
		}
	}
}

func TestHealthParamsRoundTrip(t *testing.T) {
	orig := HealthParams{Levels: 5, Branching: 4, Steps: 120, Seed: 99}
	var buf bytes.Buffer
	if err := WriteHealthParams(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHealthParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip: %+v != %+v", got, orig)
	}
}

func TestReadHealthParamsErrors(t *testing.T) {
	cases := map[string]string{
		"missing key": "levels 3\nbranching 4\n",
		"unknown key": "levels 3\nbranching 4\nsteps 5\nbogus 1\n",
		"range":       "levels 99\nbranching 4\nsteps 5\n",
		"garbage":     "levels three\n",
	}
	for name, in := range cases {
		if _, err := ReadHealthParams(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadHealthParams should fail", name)
		}
	}
}

func TestHealthParamsDefaultsSeed(t *testing.T) {
	p, err := ReadHealthParams(strings.NewReader("levels 3\nbranching 2\nsteps 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", p.Seed)
	}
}

// The three fuzz targets below feed arbitrary bytes to a reader. It
// must not panic, and whatever it accepts must come back equal after
// the matching writer and a second read.

func FuzzReadProteins(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		seqs, err := ReadProteins(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteProteins(&out, seqs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadProteins(&out)
		if err != nil {
			t.Fatalf("re-reading written proteins: %v", err)
		}
		if !reflect.DeepEqual(seqs, back) {
			t.Fatalf("WriteProteins then ReadProteins changed %q into %q", seqs, back)
		}
	})
}

func FuzzReadFloorplanCells(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		cells, err := ReadFloorplanCells(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFloorplanCells(&out, cells); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFloorplanCells(&out)
		if err != nil {
			t.Fatalf("re-reading written cells: %v", err)
		}
		if !reflect.DeepEqual(cells, back) {
			t.Fatalf("WriteFloorplanCells then ReadFloorplanCells changed %v into %v", cells, back)
		}
	})
}

func FuzzReadHealthParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := ReadHealthParams(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteHealthParams(&out, p); err != nil {
			t.Fatal(err)
		}
		back, err := ReadHealthParams(&out)
		if err != nil {
			t.Fatalf("re-reading written parameters: %v", err)
		}
		if back != p {
			t.Fatalf("WriteHealthParams then ReadHealthParams changed %+v into %+v", p, back)
		}
	})
}
