package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// driftLimit is how far the two sides' host-probe medians may differ
// before a comparison is flagged: beyond it the host, not the code, may
// explain a difference.
const driftLimit = 0.10

// judged is one side of a comparison for one metric: the value judged
// and the samples that give its spread and pairs. For one set the value
// is the set's own (a latency percentile over the pooled samples of
// every repetition, else the median over repetitions) and the samples
// are its repetitions. For several sets each set's value is one sample
// and the value is their median.
type judged struct {
	value float64
	xs    []float64
}

// verdict judges b against baseline a for one end-to-end metric by the
// choosing-metrics rules, in this order: a value worse by more than the
// bound is a regression however noisy either side is; a spread wider
// than the bound leaves the metric unresolved unless every b beats every
// a; a gain needs the value better by more than the baseline's own
// quartile spread and b winning at least nine pairs in ten.
func verdict(m metric, a, b judged) string {
	if a.value == 0 {
		if b.value == 0 {
			return "within bound"
		}
		return "unresolved"
	}
	better := func(x, y float64) bool {
		if m.higher {
			return x > y
		}
		return x < y
	}
	worse := (b.value - a.value) / math.Abs(a.value)
	if m.higher {
		worse = -worse
	}
	if worse > m.bound {
		return "regressed"
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(a.value)
	}
	spreadA := spread(a.xs)
	if max(spreadA, spread(b.xs)) > m.bound {
		for _, x := range b.xs {
			for _, y := range a.xs {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "improved"
	}
	pairs, wins := min(len(a.xs), len(b.xs)), 0
	for i := range pairs {
		if better(b.xs[i], a.xs[i]) {
			wins++
		}
	}
	if -worse > spreadA && pairs > 0 && 10*wins >= 9*pairs {
		return "improved"
	}
	return "within bound"
}

// judge collects one side's view of metric m on workload wl; ok is false
// when the side lacks it.
func judge(sets []*setResult, wl string, m metric) (j judged, ok bool) {
	if len(sets) == 1 {
		w := sets[0].Workloads[wl]
		if w == nil {
			return j, false
		}
		x, ok := w.Metrics[m.name]
		if !ok {
			return j, false
		}
		j = judged{value: x, xs: []float64{x}}
		// Repetitions of a check-pass metric price different slices of
		// the query sequence, so they are not noise samples; the set's
		// mean is deterministic per seed.
		if xs := repValues(w, m.name); !m.checkPass && len(xs) > 0 {
			j.xs = xs
		}
		return j, true
	}
	for _, s := range sets {
		if w := s.Workloads[wl]; w != nil {
			if x, ok := w.Metrics[m.name]; ok {
				j.xs = append(j.xs, x)
			}
		}
	}
	j.value = median(j.xs)
	return j, len(j.xs) > 0
}

func describe(sets []*setResult) string {
	if len(sets) == 1 {
		return fmt.Sprintf("seed %d, %d repetitions", sets[0].Seed, sets[0].Reps)
	}
	return fmt.Sprintf("%d sets at seed %d, one sample per set", len(sets), sets[0].Seed)
}

// compare prints, for every metric of every workload the two sides
// share, each side's value and the quartiles of its samples, the change,
// and a verdict for end-to-end metrics. It returns how many metrics
// regressed.
func compare(w io.Writer, aArg, bArg string) (int, error) {
	a, err := loadSets(aArg)
	if err != nil {
		return 0, err
	}
	b, err := loadSets(bArg)
	if err != nil {
		return 0, err
	}
	trace := a[0].Trace
	for _, s := range slices.Concat(a, b) {
		if s.Trace != trace {
			return 0, fmt.Errorf("cannot compare a traced set with an untraced one")
		}
	}
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", aArg, describe(a), bArg, describe(b))
	probes := func(sets []*setResult) []float64 {
		var xs []float64
		for _, s := range sets {
			for _, wl := range s.Workloads {
				xs = append(xs, repValues(wl, "probe_ms")...)
			}
		}
		return xs
	}
	regressed := 0
	for _, name := range a[0].Order {
		if b[0].Workloads[name] == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n%-30s %-34s %-34s %8s %6s  %s\n", name, "metric", "A value [q1, q3]", "B value [q1, q3]", "change", "bound", "verdict")
		for _, m := range definitions(trace) {
			ja, okA := judge(a, name, m)
			jb, okB := judge(b, name, m)
			if !okA || !okB {
				continue
			}
			side := func(j judged) string {
				q1, q3 := quartiles(j.xs)
				return fmt.Sprintf("%.5g [%.5g, %.5g]", j.value, q1, q3)
			}
			v, bound := "-", "-"
			if !trace && !m.extra {
				v, bound = verdict(m, ja, jb), fmt.Sprintf("%.0f%%", 100*m.bound)
				if v == "regressed" {
					regressed++
				}
			}
			change := "-"
			if ja.value != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(jb.value-ja.value)/math.Abs(ja.value))
			}
			fmt.Fprintf(w, "%-30s %-34s %-34s %8s %6s  %s\n", m.name, side(ja), side(jb), change, bound, v)
		}
	}
	ma, mb := median(probes(a)), median(probes(b))
	fmt.Fprintf(w, "\nhost probe: A %.2f ms, B %.2f ms", ma, mb)
	if math.Abs(mb/ma-1) > driftLimit {
		fmt.Fprintf(w, " -- host drifted (more than %.0f%%): differences may be the host's", 100*driftLimit)
	}
	fmt.Fprintln(w)
	return regressed, nil
}
