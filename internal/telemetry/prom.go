package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Prometheus text-format (version 0.0.4) encoding of a registry snapshot.
// The encoder is strict about the details scrapers trip over: HELP/TYPE
// lines precede every family exactly once, label values escape backslash,
// double-quote, and newline, histogram buckets are cumulative with an
// explicit +Inf bound, and series within a family are emitted in a stable
// order.

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line (backslash and newline only).
func escapeHelp(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelString renders {k="v",...}; extra pairs (e.g. le) are appended last.
func labelString(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus encodes the registry — its instruments and every
// registered collector's families — in the Prometheus text exposition
// format.
func WritePrometheus(w io.Writer, r *Registry) error {
	for _, f := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, escapeHelp(f.Help), f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			if s.Hist == nil {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, labelString(s.Labels), s.Value); err != nil {
					return err
				}
				continue
			}
			// Histogram: cumulative buckets over the non-empty boundaries.
			var cum int64
			for i, c := range s.Hist.Counts {
				if c == 0 {
					continue
				}
				cum += c
				_, hi := bucketBounds(i)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.Name, labelString(s.Labels, Label{"le", fmt.Sprintf("%d", hi)}), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.Name, labelString(s.Labels, Label{"le", "+Inf"}), s.Hist.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
				f.Name, labelString(s.Labels), s.Hist.Sum,
				f.Name, labelString(s.Labels), s.Hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// JSON export: the same snapshot as a stable, self-describing document —
// histograms are summarized (count/sum/max plus the standard quantiles)
// rather than dumped bucket by bucket. The shape is plain data, so a
// document that embeds it decodes back with encoding/json.

// JSONSeries is one series of a JSONFamily: Value for counters and
// gauges, the summary fields for histograms.
type JSONSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *int64            `json:"value,omitempty"`
	Count  *int64            `json:"count,omitempty"`
	Sum    *int64            `json:"sum,omitempty"`
	Max    *int64            `json:"max,omitempty"`
	P50    *int64            `json:"p50,omitempty"`
	P95    *int64            `json:"p95,omitempty"`
	P99    *int64            `json:"p99,omitempty"`
}

// JSONFamily is one family in the JSON export.
type JSONFamily struct {
	Name   string       `json:"name"`
	Help   string       `json:"help"`
	Kind   string       `json:"kind"`
	Series []JSONSeries `json:"series"`
}

// JSONFamilies converts a snapshot to the JSON export shape.
func JSONFamilies(fams []FamilySnapshot) []JSONFamily {
	out := make([]JSONFamily, 0, len(fams))
	for _, f := range fams {
		jf := JSONFamily{Name: f.Name, Help: f.Help, Kind: f.Kind}
		for _, s := range f.Series {
			js := JSONSeries{}
			if len(s.Labels) > 0 {
				js.Labels = map[string]string{}
				for _, l := range s.Labels {
					js.Labels[l.Key] = l.Value
				}
			}
			if s.Hist != nil {
				c, sum, max := s.Hist.Count, s.Hist.Sum, s.Hist.Max
				p50, p95, p99 := s.Hist.Quantile(0.50), s.Hist.Quantile(0.95), s.Hist.Quantile(0.99)
				js.Count, js.Sum, js.Max, js.P50, js.P95, js.P99 = &c, &sum, &max, &p50, &p95, &p99
			} else {
				v := s.Value
				js.Value = &v
			}
			jf.Series = append(jf.Series, js)
		}
		out = append(out, jf)
	}
	return out
}

// WriteJSON encodes the registry snapshot as indented JSON.
func WriteJSON(w io.Writer, r *Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(JSONFamilies(r.Snapshot()))
}
