package perf

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// FormatComparison renders a benchstat-style delta table between two
// reports: every metric of b (the "new" side) against its match in a
// (the "old" side), matched by Name+Params, followed by metrics only
// one side has. It is the human- and CI-facing view behind
// `botsbench -compare a.json b.json`, used to annotate the
// BENCH_<n>.json trajectory: unlike the baseline gate, it diffs any
// two committed reports, so a PR can show exactly what moved between
// trajectory points. Between reports from different hosts (sameHost)
// it says so in one line and diffs only gated metrics: a timing delta
// across hosts measures the hosts.
func FormatComparison(a, b *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "old: %s (%s, %d cpus, %s)\n", a.CreatedAt.Format("2006-01-02 15:04"), a.Host.OS, a.Host.CPUs, a.Host.GoVersion)
	fmt.Fprintf(&sb, "new: %s (%s, %d cpus, %s)\n\n", b.CreatedAt.Format("2006-01-02 15:04"), b.Host.OS, b.Host.CPUs, b.Host.GoVersion)
	timings := sameHost(a.Host, b.Host)
	if !timings {
		sb.WriteString("hosts differ: ungated timing deltas omitted, gated metrics compared\n\n")
	}
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tPARAMS\tOLD\tNEW\tDELTA\t")
	oldBy := map[string]Metric{}
	for _, m := range a.Metrics {
		oldBy[m.key()] = m
	}
	seen := map[string]bool{}
	for _, m := range b.Metrics {
		o, ok := oldBy[m.key()]
		if !ok {
			fmt.Fprintf(tw, "%s\t%s\t-\t%.4g %s\t(added)\t\n", m.Name, m.Params, m.Value, m.Unit)
			continue
		}
		seen[m.key()] = true
		if !m.Gate && !timings {
			continue
		}
		note := "~"
		if m.Value != o.Value {
			improved := m.Value > o.Value
			if m.Better == "lower" {
				improved = m.Value < o.Value
			}
			if improved {
				note = "improved"
			} else {
				note = "worse"
			}
		}
		if m.Gate {
			note += " (gated)"
		}
		delta := "n/a" // a zero old value has no meaningful percentage
		if o.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (m.Value-o.Value)/o.Value*100)
		} else if m.Value == o.Value {
			delta = "+0.0%"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\n", m.Name, m.Params, o.Value, m.Value, delta, note)
	}
	for _, m := range a.Metrics {
		// seen covers every key present on both sides, so an unseen old
		// metric has no new-side counterpart.
		if !seen[m.key()] {
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t-\t(removed)\t\n", m.Name, m.Params, m.Value, m.Unit)
		}
	}
	tw.Flush()
	return sb.String()
}
