package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsel"
	"parsel/internal/obs"
	"parsel/internal/serve"
	"parsel/parselclient"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the layer. Durations the daemon
// reports in its X-Parsel-Stages header, and the engine's own wall
// time, carry no start.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an operation's root span
	Name   string `json:"name"`
	Req    string `json:"req"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns,omitempty"` // since the run began
	Dur    int64  `json:"dur_ns"`
}

// Span names. Each is a layer, so a layer's self time is the summed
// duration of its spans minus the part their child spans cover.
const (
	spanClient    = "parselclient"     // the client call, as the caller sees it
	spanWire      = "wire"             // request sent until response body read
	spanQueue     = "serve.queue"      // admission and request parse
	spanCheckout  = "serve.checkout"   // the daemon's wait for a pool machine
	spanDataset   = "dataset"          // Dataset call: checkout, glue and engine
	spanEngine    = "engine"           // Report.WallSeconds: the collective run
	spanPoolWait  = "pool.checkout"    // in-process wait for a pool machine
	spanUploadRTT = "upload.transport" // an upload's request and response
)

// layerOf maps a span name to the per-layer metric prefix of its self
// time.
var layerOf = map[string]string{
	spanClient:    "parselclient.self",
	spanWire:      "wire.residual",
	spanQueue:     "serve.queue",
	spanCheckout:  "serve.checkout",
	spanDataset:   "dataset.glue",
	spanEngine:    "engine.wall",
	spanPoolWait:  "pool.checkout",
	spanUploadRTT: "upload.transport",
}

// exchange is one HTTP round trip as the timing transport saw it.
type exchange struct {
	start, end time.Time
	stages     string // the X-Parsel-Stages response header
}

// tracer keeps a run's spans in memory and times HTTP exchanges; one
// tracer serves one workload for the whole run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu        sync.Mutex
	spans     []span
	phase     string
	exchanges map[string]*exchange // by request id, until the op takes it
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, exchanges: make(map[string]*exchange)}
}

func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// wrap is the instance transport hook: every exchange is timed until
// its response body is read to the end or closed.
func (t *tracer) wrap(base http.RoundTripper) http.RoundTripper {
	return &timingTransport{base: base, t: t}
}

type timingTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := req.Header.Get(parselclient.RequestIDHeader)
	ex := &exchange{start: time.Now()}
	done := func() {
		ex.end = time.Now()
		tt.t.mu.Lock()
		tt.t.exchanges[id] = ex
		tt.t.mu.Unlock()
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	ex.stages = resp.Header.Get(serve.StagesHeader)
	resp.Body = &timedBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// timedBody reports the end of an exchange at the body's EOF or Close,
// whichever comes first — the client decodes only after both.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// traced returns inst's query and upload with spans recorded around
// each layer boundary.
func (t *tracer) traced(inst *instance) (query func(context.Context, int) (parsel.Report, error), upload func(context.Context, int) error) {
	query = func(ctx context.Context, i int) (parsel.Report, error) {
		id := "b" + strconv.FormatInt(t.ids.Add(1), 36)
		var wait atomic.Int64
		ctx = parselclient.WithRequestID(ctx, id)
		ctx = parsel.WithCheckoutObserver(ctx, func(d time.Duration) { wait.Add(int64(d)) })
		start := time.Now()
		rep, err := inst.query(ctx, i)
		end := time.Now()
		if err == nil {
			t.recordQuery(id, start, end, rep, time.Duration(wait.Load()), inst.lb != nil)
		}
		return rep, err
	}
	if inst.upload != nil {
		upload = func(ctx context.Context, u int) error {
			id := "b" + strconv.FormatInt(t.ids.Add(1), 36)
			start := time.Now()
			err := inst.upload(parselclient.WithRequestID(ctx, id), u)
			end := time.Now()
			if err == nil {
				t.recordUpload(id, start, end)
			}
			return err
		}
	}
	return query, upload
}

// add appends one span and returns its id; t.mu must be held.
func (t *tracer) add(name, req string, parent int32, start time.Time, dur time.Duration) int32 {
	id := int32(len(t.spans))
	s := span{ID: id, Parent: parent, Name: name, Req: req, Phase: t.phase, Dur: int64(dur)}
	if !start.IsZero() {
		s.Start = int64(start.Sub(t.epoch))
	}
	t.spans = append(t.spans, s)
	return id
}

func (t *tracer) recordQuery(id string, start, end time.Time, rep parsel.Report, wait time.Duration, overHTTP bool) {
	wall := time.Duration(rep.WallSeconds * 1e9)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !overHTTP {
		root := t.add(spanDataset, id, -1, start, end.Sub(start))
		t.add(spanPoolWait, id, root, time.Time{}, wait)
		t.add(spanEngine, id, root, time.Time{}, wall)
		return
	}
	root := t.add(spanClient, id, -1, start, end.Sub(start))
	ex := t.exchanges[id]
	delete(t.exchanges, id)
	if ex == nil {
		return
	}
	wire := t.add(spanWire, id, root, ex.start, ex.end.Sub(ex.start))
	st := parseStages(ex.stages)
	t.add(spanQueue, id, wire, time.Time{}, st["queue_ns"])
	t.add(spanCheckout, id, wire, time.Time{}, st["checkout_ns"])
	ds := t.add(spanDataset, id, wire, time.Time{}, st["execute_ns"])
	t.add(spanEngine, id, ds, time.Time{}, wall)
}

func (t *tracer) recordUpload(id string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.add(spanClient, id, -1, start, end.Sub(start))
	if ex := t.exchanges[id]; ex != nil {
		delete(t.exchanges, id)
		t.add(spanUploadRTT, id, root, ex.start, ex.end.Sub(ex.start))
	}
}

// parseStages reads "queue_ns=…;checkout_ns=…;execute_ns=…".
func parseStages(h string) map[string]time.Duration {
	out := make(map[string]time.Duration, 3)
	for _, kv := range strings.Split(h, ";") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = time.Duration(ns)
		}
	}
	return out
}

// mark is the span count at a phase boundary.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanStats sums a range of spans.
type spanStats struct {
	self  map[string]time.Duration // self time by span name
	total map[string]time.Duration // summed duration by span name
	roots int                      // operations
}

// stats sums the spans recorded between two marks.
func (t *tracer) stats(from, to int) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := spanStats{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
	for _, s := range t.spans[from:to] {
		d := time.Duration(s.Dur)
		st.self[s.Name] += d
		st.total[s.Name] += d
		if s.Parent < 0 {
			st.roots++
		} else {
			st.self[t.spans[s.Parent].Name] -= d
		}
	}
	return st
}

// writeSpans writes every span as one JSON object per line, tagged with
// the workload and the index of the set in its results file.
func (t *tracer) writeSpans(w io.Writer, set int, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Set      int    `json:"set"`
			Workload string `json:"workload"`
			span
		}{set, workload, s}); err != nil {
			return err
		}
	}
	return nil
}

// appendSpans appends the spans of a traced run, set number set of its
// results file, to the spans file at path.
func appendSpans(path string, set int, tracers map[string]*tracer, order []string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, name := range order {
		if t := tracers[name]; t != nil {
			if err := t.writeSpans(bw, set, name); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape reads the daemon's /metrics exposition.
func scrape(lb *loopback) (*obs.Scrape, error) {
	resp, err := (&http.Client{Transport: lb.tr}).Get(lb.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseText(body)
}

// scrapeValue is one series of a scrape (0 when absent, as a counter
// that has not moved yet).
func scrapeValue(sc *obs.Scrape, name string, labels map[string]string) float64 {
	if sc == nil {
		return 0
	}
	v, _ := sc.Value(name, labels)
	return v
}

// procCounters are process-wide runtime counters read at phase
// boundaries.
type procCounters struct {
	allocs, allocBytes  float64
	gcCPU, cpu, idleCPU float64
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readProc() procCounters {
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return procCounters{allocs: v(0) + v(1), allocBytes: v(2), gcCPU: v(3), cpu: v(4), idleCPU: v(5)}
}
