package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// promLine matches one sample line of the text exposition format:
// name{k="v",...} value — with the label block optional.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?\d+)$`)

// scanProm parses exposition text with a strict line scanner, validating the
// structural rules scrapers depend on and returning name → samples.
func scanProm(t *testing.T, text string) map[string][]string {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	samples := map[string][]string{}
	var curFamily string // family announced by the last HELP/TYPE pair

	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		l := sc.Text()
		switch {
		case strings.HasPrefix(l, "# HELP "):
			rest := strings.TrimPrefix(l, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", line, l)
			}
			if helpSeen[name] {
				t.Fatalf("line %d: duplicate HELP for %s", line, name)
			}
			helpSeen[name] = true
			curFamily = name
		case strings.HasPrefix(l, "# TYPE "):
			rest := strings.TrimPrefix(l, "# TYPE ")
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", line, l)
			}
			name, kind := parts[0], parts[1]
			if typeSeen[name] {
				t.Fatalf("line %d: duplicate TYPE for %s", line, name)
			}
			if !helpSeen[name] {
				t.Fatalf("line %d: TYPE for %s before its HELP", line, name)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE kind %q", line, kind)
			}
			typeSeen[name] = true
			curFamily = name
		case strings.HasPrefix(l, "#"):
			t.Fatalf("line %d: unexpected comment: %q", line, l)
		default:
			m := promLine.FindStringSubmatch(l)
			if m == nil {
				t.Fatalf("line %d: unparseable sample: %q", line, l)
			}
			name := m[1]
			// A sample's family is its name stripped of histogram suffixes.
			fam := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if typeSeen[strings.TrimSuffix(name, suf)] && strings.HasSuffix(name, suf) {
					fam = strings.TrimSuffix(name, suf)
					break
				}
			}
			if !typeSeen[fam] {
				t.Fatalf("line %d: sample %s has no preceding HELP/TYPE", line, name)
			}
			if fam != curFamily {
				t.Fatalf("line %d: sample %s interleaved into family %s's block", line, name, curFamily)
			}
			samples[name] = append(samples[name], l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestPrometheusText checks HELP/TYPE ordering, sample grammar, and counter
// and gauge values against a hand-built registry.
func TestPrometheusText(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("mux_ops_total", "ops by tier", Label{"tier", "0"}).Add(7)
	r.Counter("mux_ops_total", "ops by tier", Label{"tier", "1"}).Add(3)
	r.Gauge("mux_used_bytes", "bytes used").Set(4096)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	samples := scanProm(t, buf.String())

	got := samples["mux_ops_total"]
	want := []string{
		`mux_ops_total{tier="0"} 7`,
		`mux_ops_total{tier="1"} 3`,
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("counter samples = %q, want %q", got, want)
	}
	if g := samples["mux_used_bytes"]; len(g) != 1 || g[0] != "mux_used_bytes 4096" {
		t.Fatalf("gauge sample = %q", g)
	}
}

// TestPrometheusLabelEscaping checks backslash, quote, and newline escaping
// in label values and backslash/newline in HELP text.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("mux_weird_total", "help with \\ and \nnewline",
		Label{"path", "a\"b\\c\nd"}).Add(1)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `# HELP mux_weird_total help with \\ and \nnewline`) {
		t.Fatalf("HELP not escaped:\n%s", text)
	}
	if !strings.Contains(text, `mux_weird_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", text)
	}
	// The raw newline must not have leaked into the output.
	for i, l := range strings.Split(text, "\n") {
		if strings.Contains(l, "newline") && !strings.HasPrefix(l, "# HELP") {
			t.Fatalf("line %d: raw newline leaked: %q", i+1, l)
		}
	}
}

// TestPrometheusHistogram checks the histogram encoding: cumulative
// monotonic buckets, an +Inf bucket equal to _count, and _sum/_count lines.
func TestPrometheusHistogram(t *testing.T) {
	r := NewRegistry(0)
	h := r.Histogram("mux_lat_ns", "latency", Label{"op", "read"})
	vals := []int64{5, 5, 100, 100, 100, 5000, 1 << 20}
	var sum int64
	for _, v := range vals {
		h.Record(v)
		sum += v
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	samples := scanProm(t, buf.String())

	buckets := samples["mux_lat_ns_bucket"]
	if len(buckets) == 0 {
		t.Fatal("no _bucket samples")
	}
	// Buckets must be cumulative and monotonic, with ascending le bounds and
	// the final +Inf bucket carrying the total count.
	prevCum := int64(-1)
	prevLE := int64(-1)
	leRe := regexp.MustCompile(`le="([^"]+)"`)
	for i, b := range buckets {
		m := promLine.FindStringSubmatch(b)
		cum, _ := strconv.ParseInt(m[3], 10, 64)
		if cum < prevCum {
			t.Fatalf("bucket %d: cumulative count went backwards: %q", i, b)
		}
		prevCum = cum
		le := leRe.FindStringSubmatch(m[2])[1]
		if le == "+Inf" {
			if i != len(buckets)-1 {
				t.Fatalf("+Inf bucket not last: %q", buckets)
			}
			if cum != int64(len(vals)) {
				t.Fatalf("+Inf bucket = %d, want %d", cum, len(vals))
			}
			continue
		}
		bound, err := strconv.ParseInt(le, 10, 64)
		if err != nil {
			t.Fatalf("bucket %d: bad le %q", i, le)
		}
		if bound <= prevLE {
			t.Fatalf("bucket %d: le bounds not ascending: %q", i, buckets)
		}
		prevLE = bound
	}

	if g := samples["mux_lat_ns_sum"]; len(g) != 1 || g[0] != fmt.Sprintf(`mux_lat_ns_sum{op="read"} %d`, sum) {
		t.Fatalf("_sum = %q, want sum %d", g, sum)
	}
	if g := samples["mux_lat_ns_count"]; len(g) != 1 || g[0] != fmt.Sprintf(`mux_lat_ns_count{op="read"} %d`, len(vals)) {
		t.Fatalf("_count = %q, want %d", g, len(vals))
	}
}

// TestWriteJSON checks the JSON export round-trips and summarizes
// histograms with quantiles.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("mux_ops_total", "ops", Label{"tier", "0"}).Add(42)
	h := r.Histogram("mux_lat_ns", "latency")
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  *int64            `json:"value"`
			Count  *int64            `json:"count"`
			P50    *int64            `json:"p50"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		t.Fatalf("JSON export does not parse: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	for i, f := range fams {
		byName[f.Name] = i
	}
	c := fams[byName["mux_ops_total"]]
	if c.Kind != "counter" || len(c.Series) != 1 || c.Series[0].Value == nil || *c.Series[0].Value != 42 {
		t.Fatalf("counter family wrong: %+v", c)
	}
	if c.Series[0].Labels["tier"] != "0" {
		t.Fatalf("labels lost: %+v", c.Series[0].Labels)
	}
	hf := fams[byName["mux_lat_ns"]]
	if hf.Kind != "histogram" || len(hf.Series) != 1 {
		t.Fatalf("histogram family wrong: %+v", hf)
	}
	hs := hf.Series[0]
	if hs.Count == nil || *hs.Count != 100 || hs.P50 == nil || *hs.P50 < 900 || *hs.P50 > 1100 {
		t.Fatalf("histogram summary wrong: count=%v p50=%v", hs.Count, hs.P50)
	}
}

// TestCollectorsMergeIntoOneFamily: a family name emitted by the registry
// and by several collectors is exported once, with every series; a
// collector's families ignore Reset and disappear when it unregisters;
// the JSON form decodes back.
func TestCollectorsMergeIntoOneFamily(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("mux_ops_total", "ops", Label{"tier", "0"}).Add(1)
	tiers := Columns{CounterFamily("mux_ops_total", "ops"), GaugeFamily("mux_depth", "depth")}
	tiers.Row([]int64{5, 2}, Label{"tier", "1"})
	tiers.Row([]int64{7, 3}, Label{"tier", "2"})
	r.Register(func() []FamilySnapshot { return tiers })
	unreg := r.Register(func() []FamilySnapshot {
		return WithLabels([]FamilySnapshot{CounterFamily("mux_ops_total", "ops", Sample(9, Label{"node", "0"}))}, Label{"tier", "3"})
	})
	r.Reset()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	samples := scanProm(t, buf.String()) // fails on a repeated HELP or TYPE
	want := []string{
		`mux_ops_total{node="0",tier="3"} 9`,
		`mux_ops_total{tier="0"} 0`,
		`mux_ops_total{tier="1"} 5`,
		`mux_ops_total{tier="2"} 7`,
	}
	if got := samples["mux_ops_total"]; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("merged family = %q, want %q", got, want)
	}
	if got := samples["mux_depth"]; len(got) != 2 || got[1] != `mux_depth{tier="2"} 3` {
		t.Fatalf("mux_depth = %q", got)
	}

	unreg()
	var fams []JSONFamily
	var doc bytes.Buffer
	if err := WriteJSON(&doc, r); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc.Bytes(), &fams); err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == "mux_ops_total" && len(f.Series) != 3 {
			t.Fatalf("after unregister mux_ops_total has %d series, want 3", len(f.Series))
		}
	}
}

// TestRegisterRacesSnapshot registers and unregisters collectors while
// other goroutines scrape; run under -race.
func TestRegisterRacesSnapshot(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("mux_ops_total", "ops").Add(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					if err := WritePrometheus(io.Discard, r); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		unreg := r.Register(func() []FamilySnapshot {
			return []FamilySnapshot{GaugeFamily("mux_depth", "depth", Sample(int64(i)))}
		})
		unreg()
	}
	close(done)
	wg.Wait()
}
