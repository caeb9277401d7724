package obs

import (
	"math"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact text rendering: HELP/TYPE pairs,
// family and series ordering across registered and sampled families,
// label escaping, cumulative buckets with +Inf, and the _sum/_count
// pair.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_labeled_total", `labels with "quotes", \slashes and`+"\nnewlines", "tenant", "code")
	cv.With(`te"nant\one`+"\n", "200").Add(3)
	cv.With("b", "429").Add(1)
	cv.With("a", "200").Add(2)
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99) // above the last bound: only in +Inf
	hv := r.HistogramVec("test_staged_seconds", "labeled histogram", []float64{1}, "stage")
	hv.With("queue").Observe(0.5)

	sampled := []Sampled{
		{Name: "test_total", Help: "a counter", Kind: "counter", Samples: []Sample{{Value: 42}}},
		{Name: "test_gauge", Help: "a gauge", Kind: "gauge", Samples: []Sample{{Value: 2.5}}},
		{Name: "test_tenant_bytes", Help: "a labeled gauge", Kind: "gauge", Labels: []string{"tenant"},
			Samples: []Sample{{Labels: []string{"b"}, Value: 1e9}, {Labels: []string{"a"}, Value: 0}}},
		{Name: "test_empty_total", Help: "no series yet", Kind: "counter", Labels: []string{"tenant"}},
	}

	var b strings.Builder
	if err := r.Write(&b, sampled); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_empty_total no series yet
# TYPE test_empty_total counter
# HELP test_gauge a gauge
# TYPE test_gauge gauge
test_gauge 2.5
# HELP test_labeled_total labels with "quotes", \\slashes and\nnewlines
# TYPE test_labeled_total counter
test_labeled_total{tenant="a",code="200"} 2
test_labeled_total{tenant="b",code="429"} 1
test_labeled_total{tenant="te\"nant\\one\n",code="200"} 3
# HELP test_seconds a histogram
# TYPE test_seconds histogram
test_seconds_bucket{le="0.1"} 2
test_seconds_bucket{le="1"} 3
test_seconds_bucket{le="10"} 3
test_seconds_bucket{le="+Inf"} 4
test_seconds_sum 99.6
test_seconds_count 4
# HELP test_staged_seconds labeled histogram
# TYPE test_staged_seconds histogram
test_staged_seconds_bucket{stage="queue",le="1"} 1
test_staged_seconds_bucket{stage="queue",le="+Inf"} 1
test_staged_seconds_sum{stage="queue"} 0.5
test_staged_seconds_count{stage="queue"} 1
# HELP test_tenant_bytes a labeled gauge
# TYPE test_tenant_bytes gauge
test_tenant_bytes{tenant="a"} 0
test_tenant_bytes{tenant="b"} 1e+09
# HELP test_total a counter
# TYPE test_total counter
test_total 42
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The parser must accept its own renderer's output and recover the
	// exact values, escapes included.
	sc, err := ParseText([]byte(b.String()))
	if err != nil {
		t.Fatalf("ParseText on own output: %v", err)
	}
	if v, ok := sc.Value("test_total", nil); !ok || v != 42 {
		t.Errorf("test_total = %v %v, want 42", v, ok)
	}
	if v, ok := sc.Value("test_labeled_total", map[string]string{"tenant": `te"nant\one` + "\n", "code": "200"}); !ok || v != 3 {
		t.Errorf("escaped label sample = %v %v, want 3", v, ok)
	}
	if v, ok := sc.Value("test_seconds_bucket", map[string]string{"le": "+Inf"}); !ok || v != 4 {
		t.Errorf("+Inf bucket = %v %v, want 4", v, ok)
	}
	if v, ok := sc.Value("test_seconds_sum", nil); !ok || v != 99.6 {
		t.Errorf("sum = %v %v, want 99.6", v, ok)
	}
	if sc.Types["test_staged_seconds"] != "histogram" {
		t.Errorf("type = %q, want histogram", sc.Types["test_staged_seconds"])
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	snap := h.Snapshot()
	if snap.Count != 3 || snap.Sum != 5 {
		t.Errorf("count/sum = %d/%v, want 3/5", snap.Count, snap.Sum)
	}
	if snap.Cumulative[0] != 1 || snap.Cumulative[1] != 2 {
		t.Errorf("cumulative = %v, want [1 2]", snap.Cumulative)
	}
}

// TestParseRejects pins the validation: malformed lines, samples
// before TYPE, broken histogram invariants.
func TestParseRejects(t *testing.T) {
	cases := []struct{ name, text string }{
		{"sample before TYPE", "a_total 1\n"},
		{"bad TYPE", "# TYPE a_total widget\na_total 1\n"},
		{"duplicate TYPE", "# TYPE a gauge\n# TYPE a counter\na 1\n"},
		{"bad value", "# TYPE a counter\na one\n"},
		{"unterminated labels", "# TYPE a counter\na{x=\"1 2\n"},
		{"bad escape", "# TYPE a counter\na{x=\"\\q\"} 1\n"},
		{"duplicate sample", "# TYPE a counter\na 1\na 2\n"},
		{"bad metric name", "# TYPE 1a counter\n1a 2\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" + "h_sum 1\nh_count 3\n"},
		{"missing +Inf", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + "h_sum 1\nh_count 1\n"},
		{"+Inf disagrees with count", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\n" + "h_sum 1\nh_count 4\n"},
		{"missing count", "# TYPE h histogram\n" + `h_bucket{le="+Inf"} 3` + "\n" + "h_sum 1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseText([]byte(tc.text)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}
}

func TestParseInfValue(t *testing.T) {
	sc, err := ParseText([]byte("# TYPE g gauge\ng +Inf\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("g", nil); !ok || !math.IsInf(v, 1) {
		t.Errorf("g = %v %v, want +Inf", v, ok)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Errorf("id lengths %d/%d, want 16", len(a), len(b))
	}
	if a == b {
		t.Errorf("two ids collided: %s", a)
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	log, err := NewLogger(&b, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("visible", "k", "v")
	out := b.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, `"msg":"visible"`) {
		t.Errorf("json logger output: %q", out)
	}
	if _, err := NewLogger(&b, "xml", "info"); err == nil {
		t.Error("xml format accepted")
	}
	if _, err := NewLogger(&b, "text", "loud"); err == nil {
		t.Error("bad level accepted")
	}
}
