package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsel"
	"parsel/internal/obs"
	"parsel/internal/serve"
	"parsel/parselclient"
	"parsel/parselclient/cluster"
)

// countingTransport counts every HTTP round trip the client makes, so
// a test can compare the daemon's request accounting against ground
// truth.
type countingTransport struct {
	rt http.RoundTripper
	n  atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.rt.RoundTrip(r)
}

// syncBuf is a goroutine-safe log sink for serve.Options.Logger.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// jsonLogger is a JSON logger at Info writing into buf. JSON keeps
// string attrs quoted, so assertions can match `"id"` exactly.
func jsonLogger(t *testing.T, buf *syncBuf) *slog.Logger {
	t.Helper()
	log, err := obs.NewLogger(buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// testLogger sends structured records to t.Log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// scrape pulls and strictly parses one /metrics exposition.
func scrape(t *testing.T, base string) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("scrape: Content-Type %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	sc, err := obs.ParseText(body)
	if err != nil {
		t.Fatalf("scrape: invalid exposition: %v\n%s", err, body)
	}
	return sc
}

// mustValue fetches one sample or fails naming the missing series.
func mustValue(t *testing.T, sc *obs.Scrape, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := sc.Value(name, labels)
	if !ok {
		t.Fatalf("series %s missing", obs.SeriesKey(name, labels))
	}
	return v
}

// TestObsMetricsGolden replays part of the differential catalogue
// through a daemon and pins the /metrics exposition against /v1/stats:
// the latency histogram (count, sum, every cumulative bucket, +Inf)
// must agree exactly — the two endpoints render the same instrument —
// and parsel_requests_total must sum to exactly the requests the
// client's transport saw go out.
func TestObsMetricsGolden(t *testing.T) {
	shapes := e2eShapes()[:6]
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{})
	defer d.close()
	ct := &countingTransport{rt: d.ts.Client().Transport}
	client := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(&http.Client{Transport: ct}))

	ctx := context.Background()
	for _, shape := range shapes {
		if _, err := client.Median(ctx, shape.shards); err != nil {
			t.Fatalf("%s median: %v", shape.name, err)
		}
		rd := client.Dataset(dsID(shape.name))
		if _, err := rd.Upload(ctx, shape.shards); err != nil {
			t.Fatalf("%s upload: %v", shape.name, err)
		}
		if _, err := rd.Median(ctx); err != nil {
			t.Fatalf("%s dataset median: %v", shape.name, err)
		}
		if _, err := rd.Delete(ctx); err != nil {
			t.Fatalf("%s delete: %v", shape.name, err)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	issued := ct.n.Load()

	sc := scrape(t, d.ts.URL)

	// Latency histogram: /metrics and /v1/stats render the same
	// backing instrument, so they agree exactly — count, sum and every
	// cumulative bucket.
	const hist = "parsel_query_duration_seconds"
	if got := mustValue(t, sc, hist+"_count", nil); got != float64(st.Latency.Count) {
		t.Errorf("%s_count = %v, stats says %d", hist, got, st.Latency.Count)
	}
	if got := mustValue(t, sc, hist+"_sum", nil); got != st.Latency.SumSeconds {
		t.Errorf("%s_sum = %v, stats says %v", hist, got, st.Latency.SumSeconds)
	}
	for _, b := range st.Latency.Buckets {
		le := strconv.FormatFloat(b.LE, 'g', -1, 64)
		if got := mustValue(t, sc, hist+"_bucket", map[string]string{"le": le}); got != float64(b.Count) {
			t.Errorf("%s_bucket{le=%q} = %v, stats says %d", hist, le, got, b.Count)
		}
	}
	if got := mustValue(t, sc, hist+"_bucket", map[string]string{"le": "+Inf"}); got != float64(st.Latency.Count) {
		t.Errorf("%s_bucket{le=+Inf} = %v, want %d", hist, got, st.Latency.Count)
	}

	// Scrape-time mirrors agree with the stats snapshot (nothing moved
	// between the two reads: stats and metrics requests do not touch
	// these counters).
	for name, want := range map[string]float64{
		"parsel_server_ok_total":        float64(st.Server.OK),
		"parsel_server_rejected_total":  float64(st.Server.Rejected),
		"parsel_pool_creates_total":     float64(st.Pool.Creates),
		"parsel_dataset_uploads_total":  float64(st.Datasets.Uploads),
		"parsel_dataset_deletes_total":  float64(st.Datasets.Deletes),
		"parsel_dataset_queries_total":  float64(st.Datasets.Queries),
		"parsel_datasets":               float64(st.Datasets.Count),
		"parsel_dataset_resident_bytes": float64(st.Datasets.ResidentBytes),
	} {
		if got := mustValue(t, sc, name, nil); got != want {
			t.Errorf("%s = %v, stats says %v", name, got, want)
		}
	}

	// Every request the client sent is in parsel_requests_total —
	// including the /v1/stats call — and nothing else is: the sum over
	// all series equals the transport's ground truth. (The scrape's own
	// GET finishes after rendering, so it is not in its own exposition.)
	var total, ok200 float64
	for key, v := range sc.Samples {
		if strings.HasPrefix(key, "parsel_requests_total{") {
			total += v
			if strings.Contains(key, `code="200"`) {
				ok200 += v
			}
		}
	}
	if total != float64(issued) {
		t.Errorf("sum(parsel_requests_total) = %v, transport issued %d", total, issued)
	}
	if ok200 != total {
		t.Errorf("clean replay has %v/%v requests with code 200", ok200, total)
	}
	// The per-endpoint breakdown: dataset ids are collapsed to {id}.
	wantSeries := map[string]float64{
		`parsel_requests_total{code="200",endpoint="/v1/median",kind="int64"}`:              float64(len(shapes)),
		`parsel_requests_total{code="200",endpoint="/v1/datasets/{id}",kind="none"}`:        float64(2 * len(shapes)), // PUT + DELETE
		`parsel_requests_total{code="200",endpoint="/v1/datasets/{id}/query",kind="int64"}`: float64(len(shapes)),
		`parsel_requests_total{code="200",endpoint="/v1/stats",kind="none"}`:                1,
	}
	for key, want := range wantSeries {
		if got := sc.Samples[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}

	// Stage histograms cover exactly the successful queries of the
	// clean replay, one observation per stage per query.
	for _, stage := range []string{"queue", "checkout", "execute", "encode"} {
		labels := map[string]string{"stage": stage}
		if got := mustValue(t, sc, "parsel_query_stage_seconds_count", labels); got != float64(st.Latency.Count) {
			t.Errorf("stage %s count = %v, want %d", stage, got, st.Latency.Count)
		}
	}
}

// TestObsRequestID pins the request-correlation contract on one
// daemon: a caller-supplied X-Parsel-Request-Id is echoed on the
// response, the response carries the stage-timing header, and the id
// appears in the daemon's structured access log.
func TestObsRequestID(t *testing.T) {
	var buf syncBuf
	logger, err := obs.NewLogger(&buf, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2},
		serve.Options{Logger: logger})
	defer d.close()

	const id = "feedface00000001"
	req, err := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/median",
		strings.NewReader(`{"shards": [[9,1,5],[3,7,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("median: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(serve.RequestIDHeader); got != id {
		t.Errorf("response request id = %q, want the caller's %q", got, id)
	}
	stages := resp.Header.Get(serve.StagesHeader)
	if !regexp.MustCompile(`^queue_ns=\d+;checkout_ns=\d+;execute_ns=\d+$`).MatchString(stages) {
		t.Errorf("stage header %q malformed", stages)
	}
	if !strings.Contains(buf.String(), id) {
		t.Errorf("request id %s not in the structured log:\n%s", id, buf.String())
	}

	// A request without the header gets a generated id, echoed back.
	resp2, err := http.Post(d.ts.URL+"/v1/median", "application/json",
		strings.NewReader(`{"shards": [[9,1,5],[3,7,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if gen := resp2.Header.Get(serve.RequestIDHeader); len(gen) != 16 || gen == id {
		t.Errorf("generated request id %q, want 16 fresh hex chars", gen)
	}
}

// idTap records the X-Parsel-Request-Id of every dataset query a node
// receives, and can be switched to answer those queries 503
// shutting_down — a replica the router must fail over from.
type idTap struct {
	mu     sync.Mutex
	ids    []string
	refuse atomic.Bool
}

func (tp *idTap) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/query") {
			tp.mu.Lock()
			tp.ids = append(tp.ids, r.Header.Get(serve.RequestIDHeader))
			tp.mu.Unlock()
			if tp.refuse.Load() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":{"code":"shutting_down","message":"refused by test"}}`)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

func (tp *idTap) seen() []string {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return slices.Clone(tp.ids)
}

// TestObsClusterRequestID is the kill-one-of-3 correlation test: one
// client-chosen request id, stamped into the routing context, shows up
// in the structured logs of the primary (pre-kill) and of the failover
// node serving the same dataset after the primary dies — the id
// survives client retries and router failover unchanged. Without a
// caller id the router mints one per operation: a query whose first
// replica answers 503 reaches both replicas under the same id.
func TestObsClusterRequestID(t *testing.T) {
	const n = 3
	logs := make(map[string]*syncBuf, n)
	daemons := make(map[string]*daemon, n)
	taps := make(map[string]*idTap, n)
	var urls []string
	for i := 0; i < n; i++ {
		buf := &syncBuf{}
		logger, err := obs.NewLogger(buf, "text", "debug")
		if err != nil {
			t.Fatal(err)
		}
		tap := &idTap{}
		d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2},
			serve.Options{Logger: logger, Middleware: tap.middleware})
		t.Cleanup(d.close)
		logs[d.ts.URL] = buf
		daemons[d.ts.URL] = d
		taps[d.ts.URL] = tap
		urls = append(urls, d.ts.URL)
	}
	newRouter := func() *cluster.Router {
		r, err := cluster.New(cluster.Config{
			Nodes:            urls,
			Replicas:         2,
			RecoveryInterval: time.Hour,
			Logger:           testLogger(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ctx := context.Background()

	// No caller id: the first replica refuses, the second answers, and
	// both saw one router-minted id. This router is private to the case,
	// so the markdown it records does not leak into the flow below.
	r0 := newRouter()
	ds0 := cluster.DatasetOf[int64](r0, "obs-minted")
	if _, err := ds0.Upload(ctx, [][]int64{{4, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}
	placed0 := r0.Place("obs-minted")
	first, second := taps[placed0[0]], taps[placed0[1]]
	before1, before2 := len(first.seen()), len(second.seen())
	first.refuse.Store(true)
	if _, err := ds0.Median(ctx); err != nil {
		t.Fatalf("median over a refusing first replica: %v", err)
	}
	first.refuse.Store(false)
	got1, got2 := first.seen()[before1:], second.seen()[before2:]
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("first replica saw %d attempts, second %d; want one each", len(got1), len(got2))
	}
	if got1[0] == "" || got1[0] != got2[0] {
		t.Errorf("failover chain ran under ids %q and %q, want one minted id", got1[0], got2[0])
	}

	r := newRouter()
	const dsName = "obs-failover"
	ds := cluster.DatasetOf[int64](r, dsName)
	if _, err := ds.Upload(ctx, [][]int64{{9, 1, 5}, {3, 7, 2}, {8, 8}}); err != nil {
		t.Fatal(err)
	}
	placed := r.Place(dsName)
	primary, replica := placed[0], placed[1]

	const reqID = "cafe0123beefcafe"
	qctx := parselclient.WithRequestID(ctx, reqID)
	if _, err := ds.Median(qctx); err != nil {
		t.Fatalf("healthy median: %v", err)
	}
	if !strings.Contains(logs[primary].String(), reqID) {
		t.Fatalf("request id %s not in the primary's (%s) log", reqID, primary)
	}
	if strings.Contains(logs[replica].String(), reqID) {
		t.Fatalf("healthy query leaked to the replica %s", replica)
	}

	// Kill the primary mid-life and re-issue the same logical request:
	// the router fails over, and the same id lands in the replica's log.
	daemons[primary].close()
	if _, err := ds.Median(qctx); err != nil {
		t.Fatalf("failover median: %v", err)
	}
	if !strings.Contains(logs[replica].String(), reqID) {
		t.Fatalf("request id %s not in the failover node's (%s) log", reqID, replica)
	}
	if st := r.Stats(); st.Failovers == 0 {
		t.Error("router recorded no failover")
	}
}

// TestObsScrapeStorm runs queries, /metrics scrapes and tenant reloads
// concurrently; under -race this is the telemetry layer's data-race
// harness, and every scrape must still be a valid exposition.
func TestObsScrapeStorm(t *testing.T) {
	tenants := []serve.Tenant{
		{Name: "acme", Token: "tok-a"},
		{Name: "beta", Token: "tok-b"},
	}
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4},
		serve.Options{QueueDepth: 256, Tenants: tenants})
	defer d.close()
	client := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken("tok-a"))
	ctx := context.Background()
	shards := [][]int64{{9, 1, 5, 4}, {3, 7, 2}, {8, 8, 0}}

	const (
		queryWorkers  = 4
		scrapeWorkers = 2
		rounds        = 20
	)
	var wg sync.WaitGroup
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := client.Median(ctx, shards); err != nil {
					t.Errorf("median: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < scrapeWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(d.ts.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape read: %v", err)
					return
				}
				if _, err := obs.ParseText(body); err != nil {
					t.Errorf("scrape %d invalid: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			cfg := []serve.Tenant{
				{Name: "acme", Token: "tok-a"},
				{Name: "beta", Token: fmt.Sprintf("tok-b%d", i)},
			}
			if err := d.server.ReloadTenants(cfg); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	sc := scrape(t, d.ts.URL)
	want := float64(queryWorkers * rounds)
	if got := mustValue(t, sc, "parsel_query_duration_seconds_count", nil); got != want {
		t.Errorf("latency count after storm = %v, want %v", got, want)
	}
	if got := mustValue(t, sc, "parsel_tenant_requests_total",
		map[string]string{"tenant": "acme"}); got < want {
		t.Errorf("tenant request counter = %v, want >= %v", got, want)
	}
}

// TestObsScrapeSmoke is the CI smoke probe: one query, one scrape, a
// valid exposition carrying the core series.
func TestObsScrapeSmoke(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()
	ctx := context.Background()
	if _, err := d.client.Median(ctx, [][]int64{{3, 1, 4}, {1, 5}}); err != nil {
		t.Fatal(err)
	}
	sc := scrape(t, d.ts.URL)
	if got := mustValue(t, sc, "parsel_query_duration_seconds_count", nil); got != 1 {
		t.Errorf("latency count = %v, want 1", got)
	}
	if got := mustValue(t, sc, "parsel_requests_total", map[string]string{
		"code": "200", "endpoint": "/v1/median", "kind": "int64"}); got != 1 {
		t.Errorf("requests_total median series = %v, want 1", got)
	}
	if got := mustValue(t, sc, "parsel_pool_max_machines", nil); got != 2 {
		t.Errorf("pool max machines gauge = %v, want 2", got)
	}
	// POST is refused: the exposition is read-only.
	resp, err := http.Post(d.ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}
