// Package obs is the daemon's zero-dependency telemetry layer: a
// metrics registry with Prometheus-text-format exposition (counters
// and histograms updated in place, plus counter and gauge families the
// caller samples at render time from a stats snapshot), a strict
// parser for the same format
// (golden tests and CI smoke probes check a scrape with it, and the
// bench module's traces diff two), request-id generation for
// cross-node tracing, and a slog constructor shared by internal/serve
// and cmd/parseld.
//
// Everything here is hand-rolled on the standard library alone — the
// repo takes no dependencies — and the exposition is deliberately the
// minimal text format a Prometheus scraper accepts: one HELP and TYPE
// line per family, samples sorted by family name then label values,
// histograms as cumulative buckets with the implicit +Inf bucket and
// the _sum/_count series.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families and renders them in Prometheus
// text format. Construct instruments through its methods; registering
// the same name twice panics (a wiring bug, not a runtime condition).
// All instruments are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema; its series are
// the label-value combinations observed so far.
type family struct {
	name   string
	help   string
	kind   string // "counter", "gauge" or "histogram"
	labels []string
	bounds []float64 // histogram bucket upper bounds, ascending

	mu     sync.Mutex
	series map[string]*series
}

// series is one label-value combination's state. Counters and gauges
// are atomics (hot paths touch them lock-free; gauges are only ever
// sampled values); histogram state is guarded by mu.
type series struct {
	labelVals []string

	count atomic.Int64  // counter value
	gauge atomic.Uint64 // gauge value, as float64 bits

	mu     sync.Mutex
	hcount []int64 // per-bucket (non-cumulative) observation counts
	hover  int64   // observations above the last bound
	hsum   float64
}

// register installs a family, panicking on a duplicate name or an
// invalid schema.
func (r *Registry) register(name, help, kind string, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: metric needs a name")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %s: histogram bounds not ascending at %v", name, bounds[i]))
		}
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: labels, bounds: bounds,
		series: make(map[string]*series),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.families[name] = f
	return f
}

// get returns the series for one label-value combination, creating it
// on first use.
func (f *family) get(vals ...string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s: %d label values for %d labels", f.name, len(vals), len(f.labels)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), vals...)}
		if f.kind == "histogram" {
			s.hcount = make([]int64, len(f.bounds))
		}
		f.series[key] = s
	}
	return s
}

// A Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.s.count.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.s.count.Add(1) }

// A Histogram accumulates observations into fixed buckets.
type Histogram struct {
	s      *series
	bounds []float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	s := h.s
	s.mu.Lock()
	s.hsum += v
	placed := false
	for i, le := range h.bounds {
		if v <= le {
			s.hcount[i]++
			placed = true
			break
		}
	}
	if !placed {
		s.hover++
	}
	s.mu.Unlock()
}

// HistSnapshot is a consistent point-in-time view of a histogram:
// cumulative per-bucket counts aligned with Bounds, the total count
// (the implicit +Inf bucket) and the sum of observations.
type HistSnapshot struct {
	Bounds     []float64
	Cumulative []int64
	Count      int64
	Sum        float64
}

// Snapshot samples the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := h.s
	out := HistSnapshot{Bounds: h.bounds, Cumulative: make([]int64, len(h.bounds))}
	s.mu.Lock()
	var cum int64
	for i, c := range s.hcount {
		cum += c
		out.Cumulative[i] = cum
	}
	out.Count = cum + s.hover
	out.Sum = s.hsum
	s.mu.Unlock()
	return out
}

// Histogram registers an unlabeled histogram over the given ascending
// bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, append([]float64(nil), bounds...))
	return &Histogram{s: f.get(), bounds: f.bounds}
}

// A CounterVec is a counter family with labels; With resolves one
// label-value combination's counter.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// With returns the counter for the given label values (in the order
// the labels were registered), creating the series on first use.
func (v *CounterVec) With(vals ...string) *Counter { return &Counter{s: v.f.get(vals...)} }

// A HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family over the given
// ascending bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", labels, append([]float64(nil), bounds...))}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	return &Histogram{s: v.f.get(vals...), bounds: v.f.bounds}
}

// Sampled is a counter or gauge family whose values the caller reads
// at render time — from one stats snapshot, say — instead of keeping
// them in the registry.
type Sampled struct {
	Name, Help string
	Kind       string   // "counter" or "gauge"
	Labels     []string // label names; each sample carries their values
	Samples    []Sample
}

// A Sample is one series of a Sampled family: its label values, in
// the family's label order, and its value (a counter's is integral).
type Sample struct {
	Labels []string
	Value  float64
}

// family builds a throwaway family holding the sampled values, so it
// renders exactly as a registered one does.
func (sf Sampled) family() *family {
	f := &family{name: sf.Name, help: sf.Help, kind: sf.Kind, labels: sf.Labels,
		series: make(map[string]*series, len(sf.Samples))}
	for _, smp := range sf.Samples {
		s := f.get(smp.Labels...) // render reads the field of its kind
		s.count.Store(int64(smp.Value))
		s.gauge.Store(math.Float64bits(smp.Value))
	}
	return f
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Write renders every registered family together with the sampled
// ones in Prometheus text format: families sorted by name, series
// sorted by label values, histograms as cumulative buckets with +Inf
// and the _sum/_count pair. A family with no series yet still renders
// its HELP and TYPE lines (a scraper sees the schema before the first
// event).
func (r *Registry) Write(w io.Writer, sampled []Sampled) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families)+len(sampled))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, sf := range sampled {
		fams = append(fams, sf.family())
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// render writes one family's HELP/TYPE header and samples.
func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.Lock()
	sers := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		sers = append(sers, s)
	}
	f.mu.Unlock()
	sort.Slice(sers, func(i, j int) bool {
		a, c := sers[i].labelVals, sers[j].labelVals
		for k := range a {
			if a[k] != c[k] {
				return a[k] < c[k]
			}
		}
		return false
	})

	for _, s := range sers {
		switch f.kind {
		case "counter":
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.count.Load())
		case "gauge":
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""),
				formatFloat(math.Float64frombits(s.gauge.Load())))
		case "histogram":
			h := Histogram{s: s, bounds: f.bounds}
			snap := h.Snapshot()
			for i, le := range snap.Bounds {
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelVals, "le", formatFloat(le)), snap.Cumulative[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labelVals, "le", "+Inf"), snap.Count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), formatFloat(snap.Sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), snap.Count)
		}
	}
}

// labelString renders a {k="v",...} label set, with an optional extra
// label appended last (the histogram's le). Empty label sets render as
// nothing at all.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float sample value; integral values render
// without an exponent or trailing zeros, exactly as Prometheus's own
// text encoder does for the common cases.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line's free text: backslashes and
// newlines (the format's only HELP escapes).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
