package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// NextBenchPath returns the path the next report should be written
// to: BENCH_<n>.json in dir, where n is one past the highest existing
// index (starting at 0). The trajectory is append-only — each PR that
// touches performance adds the next file instead of rewriting an old
// one.
func NextBenchPath(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("perf: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("perf: scanning %s: %w", dir, err)
	}
	next := 0
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if i, err := strconv.Atoi(m[1]); err == nil && i+1 > next {
			next = i + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}

// WriteReport writes the report to path, then reads it back and
// validates it — the emitted artifact is checked to parse before the
// process reports success.
func WriteReport(r *Report, path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: encoding report: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("perf: writing %s: %w", path, err)
	}
	if _, err := ReadReport(path); err != nil {
		return fmt.Errorf("perf: self-check of %s failed: %w", path, err)
	}
	return nil
}

// ReadReport loads and validates a report file.
func ReadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("perf: decoding %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &r, nil
}
