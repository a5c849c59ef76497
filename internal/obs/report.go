package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Report is the end-of-run metrics artifact: every rank's snapshot,
// the ranks that died mid-run (their metrics are absent — the report
// is still complete over the survivors), and the merged global view.
// This is what -metrics-out serializes.
type Report struct {
	// Generated is the RFC3339 UTC creation time.
	Generated string `json:"generated"`
	// Ranks holds one snapshot per reporting scope: cluster ranks
	// (Rank >= 0) and optionally a ProcessRank snapshot for
	// rank-independent metrics (file I/O).
	Ranks []Snapshot `json:"ranks"`
	// DeadRanks lists ranks that were lost during the run and could
	// not report; empty on healthy runs.
	DeadRanks []int `json:"dead_ranks"`
	// Merged is the sum over Ranks.
	Merged Snapshot `json:"merged"`
}

// NewReport merges the given snapshots into a timestamped report.
// dead may be nil; it is normalized to a non-nil sorted slice so the
// JSON schema is stable.
func NewReport(snaps []Snapshot, dead []int) (*Report, error) {
	merged, err := Merge(snaps...)
	if err != nil {
		return nil, err
	}
	d := append([]int(nil), dead...)
	if d == nil {
		d = []int{}
	}
	sort.Ints(d)
	return &Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Ranks:     snaps,
		DeadRanks: d,
		Merged:    merged,
	}, nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteText renders the human summary: the merged histogram table
// (count, mean, p50, p99, total — durations for *.seconds timers, plain
// numbers otherwise, and ">bound" for a quantile above the last bucket
// bound), the merged counters, and the per-rank health line.
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "metrics (%d rank snapshot(s)", len(r.Ranks))
	if len(r.DeadRanks) > 0 {
		fmt.Fprintf(bw, ", DEAD ranks %v", r.DeadRanks)
	}
	fmt.Fprintf(bw, ")\n")
	if len(r.Merged.Histograms) > 0 {
		fmt.Fprintf(bw, "%-28s %12s %12s %12s %12s %12s\n",
			"histogram", "count", "mean", "p50", "p99", "total")
		for _, name := range sortedKeys(r.Merged.Histograms) {
			h := r.Merged.Histograms[name]
			// Only timers (named *.seconds) hold durations; every other
			// histogram counts things per observation.
			format := fmtCount
			if strings.HasSuffix(name, ".seconds") {
				format = fmtSeconds
			}
			quantile := func(q float64) string {
				v, above := h.quantile(q)
				if above {
					return ">" + format(v)
				}
				return format(v)
			}
			fmt.Fprintf(bw, "%-28s %12d %12s %12s %12s %12s\n",
				name, h.Count, format(h.Mean()), quantile(0.5),
				quantile(0.99), format(h.Sum))
		}
	}
	if len(r.Merged.Counters) > 0 {
		fmt.Fprintf(bw, "%-28s %12s\n", "counter", "value")
		for _, name := range sortedKeys(r.Merged.Counters) {
			fmt.Fprintf(bw, "%-28s %12d\n", name, r.Merged.Counters[name])
		}
	}
	for _, name := range sortedKeys(r.Merged.Gauges) {
		fmt.Fprintf(bw, "%-28s %12.3g\n", name, r.Merged.Gauges[name])
	}
	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtCount renders a count statistic: integers as such, fractional
// means and interpolated quantiles to three decimals.
func fmtCount(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// fmtSeconds renders a duration-in-seconds with an adaptive unit.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// ValidateReportJSON schema-checks a serialized report: required
// fields present, histogram bucket arrays shaped bounds+1 with
// internally consistent totals, rank tags unique, and the merged
// counters covering every per-rank counter. Used by the CI smoke run
// so a refactor cannot silently ship a malformed metrics.json.
func ValidateReportJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("obs: report does not match schema: %w", err)
	}
	if rep.Generated == "" {
		return fmt.Errorf("obs: report missing generated timestamp")
	}
	if _, err := time.Parse(time.RFC3339, rep.Generated); err != nil {
		return fmt.Errorf("obs: bad generated timestamp: %w", err)
	}
	if len(rep.Ranks) == 0 {
		return fmt.Errorf("obs: report has no rank snapshots")
	}
	seen := make(map[int]bool)
	for _, s := range rep.Ranks {
		if seen[s.Rank] {
			return fmt.Errorf("obs: duplicate snapshot for rank %d", s.Rank)
		}
		seen[s.Rank] = true
		if err := validateSnapshot(s); err != nil {
			return fmt.Errorf("obs: rank %d: %w", s.Rank, err)
		}
	}
	for _, d := range rep.DeadRanks {
		if seen[d] {
			return fmt.Errorf("obs: rank %d is both dead and reporting", d)
		}
	}
	if err := validateSnapshot(rep.Merged); err != nil {
		return fmt.Errorf("obs: merged: %w", err)
	}
	for _, s := range rep.Ranks {
		for name := range s.Counters {
			if _, ok := rep.Merged.Counters[name]; !ok {
				return fmt.Errorf("obs: merged report missing counter %q from rank %d", name, s.Rank)
			}
		}
	}
	return nil
}

func validateSnapshot(s Snapshot) error {
	for name, h := range s.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("histogram %q: %d counts for %d bounds", name, len(h.Counts), len(h.Bounds))
		}
		var total int64
		for i, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("histogram %q: negative count in bucket %d", name, i)
			}
			total += c
		}
		if total != h.Count {
			return fmt.Errorf("histogram %q: bucket counts sum to %d, count says %d", name, total, h.Count)
		}
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] <= h.Bounds[i-1] {
				return fmt.Errorf("histogram %q: bounds not ascending at %d", name, i)
			}
		}
	}
	return nil
}
