package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables keeps BENCHMARK.json and the metric tables in
// step: the same workloads, and every metric every workload reports with
// the same unit, direction and bound.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, listed []specMetric, table []metric) {
		var want []metric
		for _, m := range table {
			if !m.extra {
				want = append(want, m)
			}
		}
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(listed), len(want))
			return
		}
		for i, l := range listed {
			m := want[i]
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if l.Name != m.name || l.Unit != m.unit || l.Better != better || l.Bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %s %s %s %g", kind, i, l, m.name, m.unit, better, m.bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// runOnce runs one workload for one repetition of 100 ms phases and
// decodes its one-line result.
func runOnce(t *testing.T, w *workload, trace bool) map[string]struct{ Value float64 } {
	t.Helper()
	cfg := config{seed: 1, seconds: 0.2, reps: 1, trace: trace, tmp: t.TempDir()}
	set, _, err := run(cfg, []*workload{w}, nil)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	res := set.Workloads[w.name]
	if res.Failed != 0 || res.Attempted < checkQueries {
		t.Fatalf("%s: %d of %d operations failed: %q", w.name, res.Failed, res.Attempted, res.Errors)
	}
	line, err := summaryLine(res, trace)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	var out struct {
		Correct bool                               `json:"correct"`
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil || !out.Correct {
		t.Fatalf("%s: result line %s: %v", w.name, line, err)
	}
	return out.Metrics
}

// TestWorkloadsSmoke runs every workload for one short repetition,
// untraced twice and traced once: each run emits every metric
// BENCHMARK.json lists for its mode with no failed operation, and the
// two untraced runs price the same seeded check pass identically.
func TestWorkloadsSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runOnce(t, w, false)
			traced := runOnce(t, w, true)
			again := runOnce(t, w, false)
			for _, m := range s.EndToEnd {
				if _, ok := plain[m.Name]; !ok {
					t.Errorf("end-to-end metric %s not emitted", m.Name)
				}
			}
			for _, m := range s.PerLayer {
				if _, ok := traced[m.Name]; !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
			}
			if r := traced["decomp.residual_frac"].Value; r > residualLimit || r < -residualLimit {
				t.Errorf("decomposition residual %.3f exceeds %.2f", r, residualLimit)
			}
			if a, b := plain["sim_s"].Value, again["sim_s"].Value; a != b || a == 0 {
				t.Errorf("sim_s %v then %v for the same seed", a, b)
			}
		})
	}
}

// TestVerdict covers each verdict -compare gives, including a change
// that is both slower and noisier, which must still count as regressed.
func TestVerdict(t *testing.T) {
	p90 := endToEnd[slices.IndexFunc(endToEnd, func(m metric) bool { return m.name == "p90_cpu_ms" })]
	qps := endToEnd[slices.IndexFunc(endToEnd, func(m metric) bool { return m.name == "qps_per_core" })]
	steady := judged{10, []float64{9.9, 10, 10.1, 10, 10}}
	noisy := judged{10, []float64{6, 8, 10, 12, 14}}
	for _, c := range []struct {
		name string
		m    metric
		a, b judged
		want string
	}{
		{"worse by more than the bound", p90, steady, judged{13, []float64{13, 13, 13}}, "regressed"},
		{"worse and noisier", p90, steady, judged{20, []float64{8, 14, 20, 26, 32}}, "regressed"},
		{"worse, noisy baseline", p90, noisy, judged{20, []float64{20, 20, 20}}, "regressed"},
		{"fewer per second", qps, judged{100, []float64{100}}, judged{70, []float64{70}}, "regressed"},
		{"slightly worse", p90, steady, judged{11, []float64{10.8, 11, 11.2, 11, 11}}, "within bound"},
		{"spread wider than the bound", p90, noisy, judged{10.5, []float64{7, 9, 10.5, 12, 14}}, "unresolved"},
		{"noisy, every run better", p90, noisy, judged{3, []float64{2, 2.5, 3, 3.5, 4}}, "improved"},
		{"better in every pair", p90, steady, judged{8, []float64{7.9, 8, 8.1, 8, 8}}, "improved"},
		{"more per second in every pair", qps, judged{100, []float64{99, 100, 101}}, judged{130, []float64{129, 130, 131}}, "improved"},
		{"better in eight pairs of ten", p90,
			judged{10, []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}},
			judged{9, []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}}, "within bound"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBaselineRepeats compares the committed baseline's first two
// untraced sets, back-to-back runs of the same code, in both orders: no
// metric may regress.
func TestBaselineRepeats(t *testing.T) {
	for _, p := range [][2]string{{"#0", "#1"}, {"#1", "#0"}} {
		regressed, err := compare(io.Discard, "results/baseline-seed1.json"+p[0], "results/baseline-seed1.json"+p[1])
		if err != nil {
			t.Fatal(err)
		}
		if regressed != 0 {
			t.Errorf("set %s against set %s: %d metrics regressed on the same code", p[1], p[0], regressed)
		}
	}
}
