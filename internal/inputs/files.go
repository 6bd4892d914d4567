package inputs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file implements the text input-file formats of the original
// suite's style, so users can feed their own data sets instead of the
// synthetic generators: protein sets for Alignment (FASTA), cell sets
// for Floorplan (the AKM-style counted format), and parameter files
// for Health. Writers are provided so the synthetic inputs can be
// dumped, inspected and edited.

// ReadProteins parses a FASTA-style protein set: lines beginning with
// '>' start a new (named) sequence, other lines append residues;
// blank lines and spaces are ignored. Residues must come from the
// standard 20-letter amino-acid alphabet (case-insensitive).
func ReadProteins(r io.Reader) ([][]byte, error) {
	const alphabet = "ARNDCQEGHILKMFPSTWYV"
	valid := [256]bool{}
	for _, c := range alphabet {
		valid[c] = true
		valid[c+'a'-'A'] = true
	}
	var seqs [][]byte
	var cur []byte
	flush := func() {
		if cur != nil {
			seqs = append(seqs, cur)
			cur = nil
		}
	}
	sc := bufio.NewScanner(r)
	// No initial buffer: the scanner starts small and grows only for
	// long lines, up to 16 MiB.
	sc.Buffer(nil, 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '>' {
			flush()
			cur = []byte{}
			continue
		}
		if cur == nil {
			cur = []byte{}
		}
		for _, c := range []byte(text) {
			if c == ' ' || c == '\t' {
				continue
			}
			if !valid[c] {
				return nil, fmt.Errorf("inputs: line %d: invalid residue %q", line, c)
			}
			if c >= 'a' {
				c -= 'a' - 'A'
			}
			cur = append(cur, c)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("inputs: reading proteins: %w", err)
	}
	flush()
	if len(seqs) == 0 {
		return nil, fmt.Errorf("inputs: no sequences in protein file")
	}
	for i, s := range seqs {
		if len(s) == 0 {
			return nil, fmt.Errorf("inputs: sequence %d is empty", i+1)
		}
	}
	return seqs, nil
}

// WriteProteins writes a protein set in the FASTA format accepted by
// ReadProteins.
func WriteProteins(w io.Writer, seqs [][]byte) error {
	bw := bufio.NewWriter(w)
	for i, s := range seqs {
		fmt.Fprintf(bw, ">seq%d\n", i+1)
		for off := 0; off < len(s); off += 60 {
			end := off + 60
			if end > len(s) {
				end = len(s)
			}
			bw.Write(s[off:end])
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ReadFloorplanCells parses an AKM-style cell file: the first token
// is the cell count, then for each cell the number of alternative
// shapes followed by that many "width height" pairs. '#' starts a
// comment to end of line.
func ReadFloorplanCells(r io.Reader) ([]Cell, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	next := func() (int, error) {
		if len(toks) == 0 {
			return 0, fmt.Errorf("inputs: floorplan file truncated")
		}
		var v int
		if _, err := fmt.Sscanf(toks[0], "%d", &v); err != nil {
			return 0, fmt.Errorf("inputs: floorplan file: bad number %q", toks[0])
		}
		toks = toks[1:]
		return v, nil
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	if n <= 0 || n > 64 {
		return nil, fmt.Errorf("inputs: floorplan cell count %d out of range (1..64)", n)
	}
	cells := make([]Cell, n)
	for i := range cells {
		k, err := next()
		if err != nil {
			return nil, err
		}
		if k <= 0 || k > 16 {
			return nil, fmt.Errorf("inputs: cell %d has %d alternatives (want 1..16)", i+1, k)
		}
		for a := 0; a < k; a++ {
			w, err := next()
			if err != nil {
				return nil, err
			}
			h, err := next()
			if err != nil {
				return nil, err
			}
			if w <= 0 || h <= 0 {
				return nil, fmt.Errorf("inputs: cell %d alternative %d has degenerate shape %d×%d", i+1, a+1, w, h)
			}
			cells[i].Alts = append(cells[i].Alts, [2]int{w, h})
		}
	}
	if len(toks) != 0 {
		return nil, fmt.Errorf("inputs: floorplan file has %d trailing tokens", len(toks))
	}
	return cells, nil
}

// WriteFloorplanCells writes cells in the format accepted by
// ReadFloorplanCells.
func WriteFloorplanCells(w io.Writer, cells []Cell) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(cells))
	for i, c := range cells {
		fmt.Fprintf(bw, "# cell %d\n%d\n", i+1, len(c.Alts))
		for _, a := range c.Alts {
			fmt.Fprintf(bw, "%d %d\n", a[0], a[1])
		}
	}
	return bw.Flush()
}

// HealthParams is the parameter set of a Health simulation input
// file.
type HealthParams struct {
	Levels    int
	Branching int
	Steps     int
	Seed      uint64
}

// ReadHealthParams parses a Health parameter file: "key value" lines
// with keys levels, branching, steps, seed; '#' comments allowed.
func ReadHealthParams(r io.Reader) (HealthParams, error) {
	p := HealthParams{Seed: 1}
	sc := bufio.NewScanner(r)
	line := 0
	seen := map[string]bool{}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(stripComment(sc.Text()))
		if text == "" {
			continue
		}
		var key string
		var val uint64
		if _, err := fmt.Sscanf(text, "%s %d", &key, &val); err != nil {
			return p, fmt.Errorf("inputs: health file line %d: %q", line, text)
		}
		seen[key] = true
		switch key {
		case "levels":
			p.Levels = int(val)
		case "branching":
			p.Branching = int(val)
		case "steps":
			p.Steps = int(val)
		case "seed":
			p.Seed = val
		default:
			return p, fmt.Errorf("inputs: health file line %d: unknown key %q", line, key)
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	for _, k := range []string{"levels", "branching", "steps"} {
		if !seen[k] {
			return p, fmt.Errorf("inputs: health file missing %q", k)
		}
	}
	if p.Levels < 1 || p.Levels > 10 || p.Branching < 1 || p.Branching > 8 || p.Steps < 1 {
		return p, fmt.Errorf("inputs: health parameters out of range: %+v", p)
	}
	return p, nil
}

// WriteHealthParams writes a parameter file accepted by
// ReadHealthParams.
func WriteHealthParams(w io.Writer, p HealthParams) error {
	_, err := fmt.Fprintf(w, "# health simulation parameters\nlevels %d\nbranching %d\nsteps %d\nseed %d\n",
		p.Levels, p.Branching, p.Steps, p.Seed)
	return err
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}

func tokenize(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	var toks []string
	for sc.Scan() {
		toks = append(toks, strings.Fields(stripComment(sc.Text()))...)
	}
	return toks, sc.Err()
}
