package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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
	body := scrapeText(t, base)
	sc, err := obs.ParseText(body)
	if err != nil {
		t.Fatalf("scrape: invalid exposition: %v\n%s", err, body)
	}
	return sc
}

// scrapeText pulls one /metrics exposition as raw text.
func scrapeText(t *testing.T, base string) []byte {
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
	return body
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
// through a daemon and pins the live request-path instruments of
// /metrics: the latency histogram (count, sum, every cumulative
// bucket, +Inf) must agree exactly with /v1/stats — the two endpoints
// render the same instrument — and parsel_requests_total must sum to
// exactly the requests the client's transport saw go out. The rest of
// /v1/stats is pinned leaf by leaf by TestObsStatsParity.
func TestObsMetricsGolden(t *testing.T) {
	shapes := e2eShapes()[:6]
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{})
	defer d.close()
	ct := &countingTransport{rt: d.ts.Client().Transport}
	client := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(&http.Client{Transport: ct}))

	ctx := context.Background()
	for _, shape := range shapes {
		if _, err := client.Over(shape.shards).Median(ctx); err != nil {
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

// TestObsFamiliesGolden pins the exported family names: every
// family recorded in testdata/golden/metrics_families.txt (sorted
// "name TYPE HELP" lines) must still be exported with the same TYPE
// and HELP. The bench module reads families by name and takes a
// missing series as 0, so a rename would zero its metric silently. A
// deliberate rename re-records with
// go test ./internal/serve -run TestObsFamiliesGolden -update-golden
func TestObsFamiliesGolden(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()
	help, typ := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(string(scrapeText(t, d.ts.URL)), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
		}
	}
	got := make(map[string]string, len(typ))
	for name, kind := range typ {
		got[name] = kind + " " + help[name]
	}

	path := filepath.Join("testdata", "golden", "metrics_families.txt")
	if *updateGolden {
		lines := make([]string, 0, len(got))
		for name, rest := range got {
			lines = append(lines, name+" "+rest)
		}
		slices.Sort(lines)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update-golden to record): %v", err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		if g, ok := got[name]; !ok {
			t.Errorf("family %s is no longer exported", name)
		} else if g != rest {
			t.Errorf("family %s: exported as %q, recorded as %q", name, g, rest)
		}
	}
}

// statFamilies names the /metrics series of every numeric or boolean
// /v1/stats leaf, keyed by the leaf's JSON path. "*" stands for a
// tenant name: those series carry it as their tenant label.
var statFamilies = map[string]string{
	"pool.creates":                   "parsel_pool_creates_total",
	"pool.hits":                      "parsel_pool_hits_total",
	"pool.reshapes":                  "parsel_pool_reshapes_total",
	"pool.waits":                     "parsel_pool_waits_total",
	"pool.timeouts":                  "parsel_pool_timeouts_total",
	"pool.resident":                  "parsel_pool_resident",
	"pool.idle":                      "parsel_pool_idle",
	"pool.max_machines":              "parsel_pool_max_machines",
	"server.requests":                "parsel_server_requests_total",
	"server.ok":                      "parsel_server_ok_total",
	"server.client_errors":           "parsel_server_client_errors_total",
	"server.server_errors":           "parsel_server_server_errors_total",
	"server.timeouts":                "parsel_server_pool_timeouts_total",
	"server.rejected":                "parsel_server_rejected_total",
	"server.inflight":                "parsel_admission_inflight",
	"server.panics":                  "parsel_server_panics_total",
	"server.draining":                "parsel_draining",
	"sim.queries":                    "parsel_sim_queries_total",
	"sim.sim_seconds_total":          "parsel_sim_seconds",
	"sim.messages_total":             "parsel_sim_messages_total",
	"sim.bytes_total":                "parsel_sim_bytes_total",
	"datasets.count":                 "parsel_datasets",
	"datasets.resident_bytes":        "parsel_dataset_resident_bytes",
	"datasets.budget_bytes":          "parsel_dataset_budget_bytes",
	"datasets.uploads":               "parsel_dataset_uploads_total",
	"datasets.replaced":              "parsel_dataset_replaced_total",
	"datasets.deletes":               "parsel_dataset_deletes_total",
	"datasets.expired":               "parsel_dataset_expired_total",
	"datasets.rejected":              "parsel_dataset_rejected_total",
	"datasets.not_found":             "parsel_dataset_not_found_total",
	"datasets.queries":               "parsel_dataset_queries_total",
	"datasets.exports":               "parsel_dataset_exports_total",
	"snapshots.enabled":              "parsel_snapshot_enabled",
	"snapshots.restored":             "parsel_snapshot_restored_total",
	"snapshots.restore_skipped":      "parsel_snapshot_restore_skipped_total",
	"snapshots.quarantined":          "parsel_snapshot_quarantined_total",
	"snapshots.persists":             "parsel_snapshot_persists_total",
	"snapshots.persist_errors":       "parsel_snapshot_persist_errors_total",
	"snapshots.snapshot_bytes":       "parsel_snapshot_bytes",
	"snapshots.dirty":                "parsel_snapshot_dirty",
	"snapshots.last_persist_unix_ms": "parsel_snapshot_last_persist_unix_ms",
	"snapshots.degraded":             "parsel_snapshot_degraded",
	"tenants.*.datasets":             "parsel_tenant_datasets",
	"tenants.*.resident_bytes":       "parsel_tenant_resident_bytes",
	"tenants.*.max_resident_bytes":   "parsel_tenant_max_resident_bytes",
	"tenants.*.max_datasets":         "parsel_tenant_max_datasets",
	"tenants.*.requests":             "parsel_tenant_requests_total",
	"tenants.*.rejected":             "parsel_tenant_rejected_total",
}

// statLeaves calls leaf for every numeric or boolean field under v, a
// parselclient.Stats value, with the field's JSON path. Map entries
// (the tenant blocks) recurse under "*" and pass their key as tenant.
// The latency histogram is skipped: TestObsMetricsGolden pins it
// bucket by bucket.
func statLeaves(v reflect.Value, path, tenant string, leaf func(path, tenant string, val float64)) {
	if path == "latency" {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			statLeaves(v.Field(i), name, tenant, leaf)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			statLeaves(v.MapIndex(k), path+".*", k.String(), leaf)
		}
	case reflect.Int, reflect.Int64:
		leaf(path, tenant, float64(v.Int()))
	case reflect.Float64:
		leaf(path, tenant, v.Float())
	case reflect.Bool:
		leaf(path, tenant, map[bool]float64{true: 1}[v.Bool()])
	default:
		panic("statLeaves: unhandled field " + path + " of kind " + v.Kind().String())
	}
}

// replayKind sends one kind's share of the parity replay: a shard
// query, an upload and a dataset query.
func replayKind[K parselclient.Key](t *testing.T, kc parselclient.KindClient[K], shards [][]K) {
	t.Helper()
	ctx := context.Background()
	if _, err := kc.Over(shards).Median(ctx); err != nil {
		t.Fatalf("%s median: %v", parselclient.KeyKindOf[K](), err)
	}
	ds := kc.Dataset("parity-" + parselclient.KeyKindOf[K]())
	if _, err := ds.Upload(ctx, shards); err != nil {
		t.Fatalf("%s upload: %v", parselclient.KeyKindOf[K](), err)
	}
	if _, _, err := ds.Quantiles(ctx, []float64{0.25, 0.75}); err != nil {
		t.Fatalf("%s dataset quantiles: %v", parselclient.KeyKindOf[K](), err)
	}
}

// TestObsStatsParity pins /metrics to /v1/stats leaf by leaf. After a
// mixed replay — three key kinds over JSON and frames, one tenant,
// snapshots on, one 413 and one 404 — every numeric or boolean field
// of the stats snapshot, tenant block included, must have a series on
// /metrics carrying the same value.
func TestObsStatsParity(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{
		Tenants:     []serve.Tenant{{Name: "acme", Token: "tok-a", MaxResidentBytes: 1 << 16, MaxDatasets: 8}},
		SnapshotDir: t.TempDir(),
	})
	defer d.close()
	defer d.server.Drain()
	ctx := context.Background()
	shards := [][]int64{{9, 1, 5, 4}, {3, 7, 2}, {8, 8, 0}}
	jsonc := parselclient.New(d.ts.URL,
		parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken("tok-a"))
	framec := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()),
		parselclient.WithToken("tok-a"), parselclient.WithBinary(true))
	for _, c := range []*parselclient.Client{jsonc, framec} {
		replayKind(t, parselclient.Keyed[int64](c), shards)
		replayKind(t, parselclient.Keyed[float64](c), float64Shards(shards))
		replayKind(t, parselclient.Keyed[string](c), stringShards(shards))
	}
	if _, err := jsonc.Dataset("parity-big").Upload(ctx, [][]int64{make([]int64, 1<<14)}); !errors.Is(err, parselclient.ErrTenantBudget) {
		t.Fatalf("upload over the tenant budget: %v, want 413 tenant_budget", err)
	}
	if _, err := jsonc.Dataset("parity-absent").Median(ctx); !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Fatalf("query of an absent dataset: %v, want 404", err)
	}
	d.server.FlushSnapshots()

	st, err := jsonc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sc := scrape(t, d.ts.URL)
	seen := map[string]bool{}
	statLeaves(reflect.ValueOf(st), "", "", func(path, tenant string, want float64) {
		seen[path] = true
		name, ok := statFamilies[path]
		if !ok {
			t.Errorf("/v1/stats leaf %s has no /metrics family", path)
			return
		}
		var labels map[string]string
		if tenant != "" {
			labels = map[string]string{"tenant": tenant}
		}
		if got, ok := sc.Value(name, labels); !ok {
			t.Errorf("/v1/stats leaf %s: series %s missing", path, obs.SeriesKey(name, labels))
		} else if got != want {
			t.Errorf("/v1/stats leaf %s: %s = %v, stats says %v", path, obs.SeriesKey(name, labels), got, want)
		}
	})
	for path := range statFamilies {
		if !seen[path] {
			t.Errorf("statFamilies names %s, which /v1/stats does not carry", path)
		}
	}
	if st.Pool.Creates == 0 || st.Server.Requests == 0 || st.Datasets.Rejected != 1 ||
		st.Datasets.NotFound != 1 || st.Snapshots.Persists == 0 || st.Tenants["acme"].Rejected != 1 {
		t.Errorf("replay missed a fact it exercises: %+v", st)
	}
}

// TestObsKindPoolsCounted pins that every kind pool reaches the pool
// counters: a daemon serving only float64 and string queries, over the
// shard endpoint and the dataset path, must report machines built, and
// /v1/stats and /metrics must report the same number.
func TestObsKindPoolsCounted(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()
	shards := [][]int64{{9, 1, 5, 4}, {3, 7, 2}, {8, 8, 0}}
	replayKind(t, parselclient.Keyed[float64](d.client), float64Shards(shards))
	replayKind(t, parselclient.Keyed[string](d.client), stringShards(shards))

	st, err := d.client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Creates == 0 || st.Pool.Resident == 0 {
		t.Fatalf("float64 and string traffic left the pool stats empty: %+v", st.Pool)
	}
	sc := scrape(t, d.ts.URL)
	if got := mustValue(t, sc, "parsel_pool_creates_total", nil); got != float64(st.Pool.Creates) {
		t.Errorf("parsel_pool_creates_total = %v, stats says %d", got, st.Pool.Creates)
	}
	if got := mustValue(t, sc, "parsel_pool_max_machines", nil); got != 2 {
		t.Errorf("parsel_pool_max_machines = %v, want the per-kind capacity 2", got)
	}
}

// TestObsReloadDropsTenantSeries pins that /metrics forgets a tenant
// when /v1/stats does: after a reload drops beta, no tenant="beta"
// series remains, while acme keeps its carried-over counts.
func TestObsReloadDropsTenantSeries(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{
		Tenants: []serve.Tenant{{Name: "acme", Token: "tok-a"}, {Name: "beta", Token: "tok-b"}},
	})
	defer d.close()
	ctx := context.Background()
	for _, tok := range []string{"tok-a", "tok-b"} {
		c := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithToken(tok))
		if _, err := c.Over([][]int64{{3, 1}, {2}}).Median(ctx); err != nil {
			t.Fatal(err)
		}
	}
	beta := map[string]string{"tenant": "beta"}
	if got := mustValue(t, scrape(t, d.ts.URL), "parsel_tenant_requests_total", beta); got != 1 {
		t.Fatalf("beta requests before the reload = %v, want 1", got)
	}

	if err := d.server.ReloadTenants([]serve.Tenant{{Name: "acme", Token: "tok-a2"}}); err != nil {
		t.Fatal(err)
	}
	sc := scrape(t, d.ts.URL)
	for key := range sc.Samples {
		if strings.Contains(key, `tenant="beta"`) {
			t.Errorf("dropped tenant still exported: %s", key)
		}
	}
	acme := d.server.Stats().Tenants["acme"]
	if got := mustValue(t, sc, "parsel_tenant_requests_total", map[string]string{"tenant": "acme"}); acme.Requests != 1 || got != 1 {
		t.Errorf("acme requests after the reload: metrics %v, stats %d, want 1", got, acme.Requests)
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

// TestObsScrapeStorm runs int64 and float64 queries, /metrics scrapes,
// /v1/stats reads and tenant reloads concurrently; under -race this is
// the telemetry layer's data-race harness (the snapshot render path
// and the summed kind-pool stats included), and every scrape must
// still be a valid exposition.
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
	fshards := float64Shards(shards)
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var err error
				if w%2 == 0 {
					_, err = client.Over(shards).Median(ctx)
				} else {
					_, err = parselclient.Keyed[float64](client).Over(fshards).Median(ctx)
				}
				if err != nil {
					t.Errorf("median: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := client.Stats(ctx); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
		}
	}()
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
	if got := mustValue(t, sc, "parsel_sim_queries_total", nil); got != want {
		t.Errorf("sim queries after storm = %v, want %v", got, want)
	}
	if got := mustValue(t, sc, "parsel_pool_creates_total", nil); got < 2 {
		t.Errorf("pool creates after int64 and float64 storms = %v, want >= 2", got)
	}
}

// TestObsScrapeSmoke is the CI smoke probe: one query, one scrape, a
// valid exposition carrying the core series.
func TestObsScrapeSmoke(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()
	ctx := context.Background()
	if _, err := d.client.Over([][]int64{{3, 1, 4}, {1, 5}}).Median(ctx); err != nil {
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
