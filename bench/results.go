package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"strings"
)

// resultsFile is the -out file: one or more sets, appended in the order
// they ran.
type resultsFile struct {
	Sets []*setResult `json:"sets"`
}

// setResult is one run of the benchmark.
type setResult struct {
	Seed       uint64               `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Reps       int                  `json:"reps"`
	Trace      bool                 `json:"trace"`
	Go         string               `json:"go"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Started    string               `json:"started"`
	Order      []string             `json:"order"`
	Workloads  map[string]*wlResult `json:"workloads"`
}

// wlResult is one workload's numbers in a set: the summarized metrics
// and every repetition's own values (probe_ms included), which -compare
// judges with.
type wlResult struct {
	Metrics   map[string]float64   `json:"metrics"`
	Reps      []map[string]float64 `json:"reps"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
}

// appendResults adds set to the results file at path, creating it if
// needed, and returns the set's index in the file.
func appendResults(path string, set *setResult) (int, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return 0, err
	}
	f.Sets = append(f.Sets, set)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return 0, err
	}
	return len(f.Sets) - 1, os.WriteFile(path, append(out, '\n'), 0o644)
}

// loadSets reads one side of a comparison: "file#k" is the file's k-th
// set (from 0); a bare file is all its untraced sets.
func loadSets(arg string) ([]*setResult, error) {
	path, idx, indexed := strings.Cut(arg, "#")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if indexed {
		k, err := strconv.Atoi(idx)
		if err != nil || k < 0 || k >= len(f.Sets) {
			return nil, fmt.Errorf("%s: no set %q (the file holds %d)", path, idx, len(f.Sets))
		}
		return f.Sets[k : k+1], nil
	}
	var sets []*setResult
	for _, s := range f.Sets {
		if !s.Trace {
			sets = append(sets, s)
		}
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no untraced set (name a traced one as %s#k)", path, path)
	}
	return sets, nil
}

// repValues collects one metric over a workload's repetitions.
func repValues(w *wlResult, name string) []float64 {
	var xs []float64
	for _, m := range w.Reps {
		if x, ok := m[name]; ok {
			xs = append(xs, x)
		}
	}
	return xs
}

func definitions(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printSet writes one table per workload: each metric's value with the
// quartiles of its per-repetition values.
func printSet(w io.Writer, set *setResult) {
	mode := "untraced"
	if set.Trace {
		mode = "traced"
	}
	for _, name := range set.Order {
		res := set.Workloads[name]
		fmt.Fprintf(w, "\n== %s: seed %d, %d repetitions, %g s measured, %s ==\n", name, set.Seed, set.Reps, set.Seconds, mode)
		fmt.Fprintf(w, "%-30s %14s %14s %14s  %-6s\n", "metric", "value", "rep q1", "rep q3", "unit")
		for _, d := range definitions(set.Trace) {
			x, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			q1, q3 := quartiles(repValues(res, d.name))
			fmt.Fprintf(w, "%-30s %14.6g %14.6g %14.6g  %-6s", d.name, x, q1, q3, d.unit)
			if set.Trace {
				fmt.Fprintf(w, " %s -> %s", d.layer, d.moves)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "attempted %d, failed %d (failed_frac %.4g); host probe median %.3f ms\n",
			res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), median(repValues(res, "probe_ms")))
		for _, e := range res.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
	}
}

// summaryLine is the one-line JSON result of a single-workload run:
// every metric BENCHMARK.json lists for the mode, with its unit.
func summaryLine(res *wlResult, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range definitions(trace) {
		if d.extra {
			continue
		}
		x, ok := res.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = value{x, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, ms})
}
