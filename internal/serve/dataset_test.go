package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/snapshot"
	"parsel/internal/workload"
	"parsel/parselclient"
)

// putRaw sends a raw PUT body at the daemon and decodes the structured
// error, if any.
func putRaw(t *testing.T, d *daemon, path, body string) (int, parselclient.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, d.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var eb parselclient.ErrorBody
	_ = json.NewDecoder(res.Body).Decode(&eb)
	return res.StatusCode, eb
}

// TestDatasetRoundTrip pins the upload-once/query-many lifecycle over
// the wire: upload, info, the full query surface bit-identical to
// in-process Pool calls on the same shards, delete, and the typed
// not-found for queries after DELETE.
func TestDatasetRoundTrip(t *testing.T) {
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()
	oracle, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	shards := workload.Generate(workload.ZipfLike, 9000, 5, 77)
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	rd := d.client.Dataset("fleet.v1")

	info, err := rd.Upload(ctx, shards)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if info.ID != "fleet.v1" || info.Procs != 5 || info.N != n || info.Bytes != n*8 {
		t.Errorf("upload info: %+v", info)
	}
	if info.ExpiresInMS <= 0 {
		t.Errorf("upload info carries no TTL: %+v", info)
	}
	if got, err := rd.Info(ctx); err != nil || got.N != n {
		t.Errorf("info: %+v %v", got, err)
	}

	// The full query surface, bit-identical to in-process Pool calls.
	rank := (n + 1) / 2
	gsel, err := rd.Select(ctx, rank)
	if err != nil {
		t.Fatal(err)
	}
	wsel, err := oracle.Over(shards).Select(context.Background(), rank)
	if err != nil {
		t.Fatal(err)
	}
	if gsel.Value != wsel.Value || simOf(gsel.Report) != simOf(wsel.Report) {
		t.Errorf("select: dataset %d %+v, pool %d %+v",
			gsel.Value, simOf(gsel.Report), wsel.Value, simOf(wsel.Report))
	}
	gmed, err := rd.Median(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gmed.Value != wsel.Value {
		t.Errorf("median %d, select(ceil(n/2)) %d", gmed.Value, wsel.Value)
	}
	gq, err := rd.Quantile(ctx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	wq, err := oracle.Over(shards).Quantile(context.Background(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if gq.Value != wq.Value || simOf(gq.Report) != simOf(wq.Report) {
		t.Errorf("quantile: dataset %d, pool %d", gq.Value, wq.Value)
	}
	qs := []float64{0.1, 0.5, 0.99}
	gqs, grep, err := rd.Quantiles(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	wqs, wrep, err := oracle.Over(shards).Quantiles(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gqs, wqs) || simOf(grep) != simOf(wrep) {
		t.Errorf("quantiles: dataset %v, pool %v", gqs, wqs)
	}
	ranks := []int64{1, n}
	grs, _, err := rd.SelectRanks(ctx, ranks)
	if err != nil {
		t.Fatal(err)
	}
	wrs, _, err := oracle.Over(shards).SelectRanks(context.Background(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(grs, wrs) {
		t.Errorf("ranks: dataset %v, pool %v", grs, wrs)
	}
	gtop, _, err := rd.TopK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	wtop, _, err := oracle.Over(shards).TopK(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gtop, wtop) {
		t.Errorf("topk: dataset %v, pool %v", gtop, wtop)
	}
	gbot, _, err := rd.BottomK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	wbot, _, err := oracle.Over(shards).BottomK(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gbot, wbot) {
		t.Errorf("bottomk: dataset %v, pool %v", gbot, wbot)
	}
	gsum, gsrep, err := rd.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wsum, wsrep, err := oracle.Over(shards).Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gsum != wsum || simOf(gsrep) != simOf(wsrep) {
		t.Errorf("summary: dataset %+v, pool %+v", gsum, wsum)
	}

	// Replacement: re-PUT under the same id swaps the population.
	if _, err := rd.Upload(ctx, [][]int64{{10, 30}, {20}}); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if res, err := rd.Median(ctx); err != nil || res.Value != 20 {
		t.Errorf("median after replace = %v %v, want 20", res.Value, err)
	}

	// DELETE frees the id; queries after it get the typed not-found.
	dinfo, err := rd.Delete(ctx)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if dinfo.N != 3 {
		t.Errorf("delete info: %+v, want the replaced population", dinfo)
	}
	_, err = rd.Median(ctx)
	if !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Errorf("query after DELETE = %v, want ErrDatasetNotFound", err)
	}
	var apiErr *parselclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != parselclient.CodeDatasetNotFound {
		t.Errorf("query after DELETE: %v, want 404 %s", err, parselclient.CodeDatasetNotFound)
	}
	if _, err := rd.Delete(ctx); !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Errorf("second DELETE = %v, want ErrDatasetNotFound", err)
	}
	if _, err := rd.Info(ctx); !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Errorf("info after DELETE = %v, want ErrDatasetNotFound", err)
	}

	st := d.server.Stats()
	if st.Datasets.Count != 0 || st.Datasets.ResidentBytes != 0 {
		t.Errorf("gauges after delete: %+v", st.Datasets)
	}
	if st.Datasets.Uploads != 2 || st.Datasets.Replaced != 1 || st.Datasets.Deletes != 1 {
		t.Errorf("lifecycle counters: %+v", st.Datasets)
	}
	if st.Datasets.NotFound != 3 || st.Datasets.Queries == 0 {
		t.Errorf("query counters: %+v", st.Datasets)
	}
	// Request accounting covers the dataset endpoints exactly once each.
	sum := st.Server.OK + st.Server.Timeouts + st.Server.Rejected +
		st.Server.ClientErrors + st.Server.ServerErrors
	if st.Server.Requests != sum {
		t.Errorf("request accounting leak: %d requests, outcomes sum to %d: %+v",
			st.Server.Requests, sum, st.Server)
	}
}

// TestDatasetBudget pins the resident-bytes budget: an upload that
// would exceed it is refused with the typed constant-time 413 — no
// eviction of live data, no partial registration — and the budget frees
// on delete. The dataset count cap rejects with the same code.
func TestDatasetBudget(t *testing.T) {
	ctx := context.Background()
	// Budget: 100 resident keys worth of bytes.
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{MaxResidentBytes: 800})
	defer d.close()

	keys := func(n int) [][]int64 {
		sh := make([]int64, n)
		for i := range sh {
			sh[i] = int64(i)
		}
		return [][]int64{sh}
	}

	// 101 keys do not fit an empty 100-key budget.
	_, err := d.client.Dataset("big").Upload(ctx, keys(101))
	if !errors.Is(err, parselclient.ErrResidentBudget) {
		t.Fatalf("oversized upload = %v, want ErrResidentBudget", err)
	}
	var apiErr *parselclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 413 || apiErr.Code != parselclient.CodeResidentBudget {
		t.Errorf("oversized upload: %v, want 413 %s", err, parselclient.CodeResidentBudget)
	}
	st := d.server.Stats()
	if st.Datasets.Count != 0 || st.Datasets.ResidentBytes != 0 || st.Datasets.Rejected != 1 {
		t.Errorf("rejected upload left state behind: %+v", st.Datasets)
	}

	// 60 keys fit; another 60 do not (live data is never evicted to
	// make room); after deleting the first, they do.
	if _, err := d.client.Dataset("a").Upload(ctx, keys(60)); err != nil {
		t.Fatalf("first upload: %v", err)
	}
	if _, err := d.client.Dataset("b").Upload(ctx, keys(60)); !errors.Is(err, parselclient.ErrResidentBudget) {
		t.Fatalf("second upload = %v, want ErrResidentBudget", err)
	}
	if res, err := d.client.Dataset("a").Median(ctx); err != nil || res.Value != 29 {
		t.Errorf("live dataset after rejected upload: %v %v", res.Value, err)
	}
	// Replacement accounts the freed bytes: re-PUT of "a" at 100 keys
	// fits even though the registry holds 60.
	if _, err := d.client.Dataset("a").Upload(ctx, keys(100)); err != nil {
		t.Fatalf("replacing upload: %v", err)
	}
	if _, err := d.client.Dataset("a").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Dataset("b").Upload(ctx, keys(60)); err != nil {
		t.Fatalf("upload after delete: %v", err)
	}

	// The count cap uses the same typed rejection.
	dc := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{MaxDatasets: 1})
	defer dc.close()
	if _, err := dc.client.Dataset("one").Upload(ctx, keys(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.client.Dataset("two").Upload(ctx, keys(3)); !errors.Is(err, parselclient.ErrResidentBudget) {
		t.Errorf("count-capped upload = %v, want ErrResidentBudget", err)
	}
	// Replacement of the resident id is not a new dataset.
	if _, err := dc.client.Dataset("one").Upload(ctx, keys(5)); err != nil {
		t.Errorf("replacement under count cap: %v", err)
	}
}

// TestUploadInFlightHoldsSlot pins that an upload holds its dataset
// slot from admission to commit. Under a full MaxDatasets cap, a frame
// re-PUT of the resident id stalls mid-stream; while it streams the
// count gauge still reads one, and a second PUT of the same id is
// refused with a retryable 413 resident_budget before it copies a key.
// The stalled upload then completes and is the one dataset resident.
func TestUploadInFlightHoldsSlot(t *testing.T) {
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{MaxDatasets: 1})
	defer d.close()
	if _, err := d.client.Dataset("one").Upload(ctx, [][]int64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}

	shard := make([]int64, 1000)
	for i := range shard {
		shard[i] = int64(i)
	}
	body := snapshot.Encode(snapshot.Header{}, [][]int64{shard})
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, d.ts.URL+"/v1/datasets/one", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", parselclient.ContentTypeFrame)
	status := make(chan int, 1)
	go func() {
		res, err := d.ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		res.Body.Close()
		status <- res.StatusCode
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	// The stalled upload has reserved once the resident "one" left the
	// registry as replaced.
	deadline := time.Now().Add(5 * time.Second)
	for d.server.Stats().Datasets.Replaced != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled upload never reserved: %+v", d.server.Stats().Datasets)
		}
		time.Sleep(time.Millisecond)
	}
	if st := d.server.Stats().Datasets; st.Count != 1 || st.ResidentBytes != 8000 {
		t.Errorf("ledger with the upload in flight: %+v, want its slot and 8000 bytes", st)
	}

	_, err = d.client.Dataset("one").Upload(ctx, [][]int64{{4, 5}})
	var apiErr *parselclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge ||
		apiErr.Code != parselclient.CodeResidentBudget || apiErr.RetryAfter <= 0 {
		t.Fatalf("second PUT of the id in flight = %v, want 413 %s with Retry-After",
			err, parselclient.CodeResidentBudget)
	}

	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if got := <-status; got != http.StatusOK {
		t.Fatalf("stalled upload finished %d, want 200", got)
	}
	st := d.server.Stats().Datasets
	if st.Count != 1 || st.ResidentBytes != 8000 || st.Rejected != 1 {
		t.Errorf("ledger after commit: %+v, want one 8000-byte dataset and one rejection", st)
	}
	if res, err := d.client.Dataset("one").Median(ctx); err != nil || res.Value != 499 {
		t.Errorf("median after commit: %v %v, want 499", res.Value, err)
	}
}

// TestDatasetTTLEvictionUnderHeldMachine pins that TTL eviction is pure
// registry work: with the daemon's only machine held by a slow query,
// an idle dataset whose TTL lapses is still evicted (the sweep needs no
// machine), queries bump the TTL, and the probe GET does not.
func TestDatasetTTLEvictionUnderHeldMachine(t *testing.T) {
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{Algorithm: parsel.MedianOfMedians},
		parsel.PoolOptions{MaxMachines: 1},
		serve.Options{DatasetTTL: time.Minute, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	defer d.close()

	// A deterministic clock the test advances by hand.
	base := time.Now()
	var offset atomic.Int64
	d.server.SetNowForTest(func() time.Time {
		return base.Add(time.Duration(offset.Load()))
	})

	rd := d.client.Dataset("cache")
	if _, err := rd.Upload(ctx, [][]int64{{4, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}

	// Hold the single machine with the paper's slowest configuration
	// (median-of-medians on sorted keys).
	slow := workload.Generate(workload.Sorted, 262144, 8, 3)
	slowDone := make(chan error, 1)
	go func() {
		_, err := d.client.Over(slow).Median(ctx)
		slowDone <- err
	}()
	waitStats(t, d, "slow query to be admitted", func(st parselclient.Stats) bool {
		return st.Server.Inflight >= 1
	})

	// 30s in: a query touches the dataset, resetting its TTL clock.
	offset.Store(int64(30 * time.Second))
	if res, err := rd.Select(ctx, 1); err != nil || res.Value != 1 {
		t.Fatalf("select at +30s: %v %v", res.Value, err)
	}
	// 80s in (50s after the touch): still resident; the info probe sees
	// it without extending its life.
	offset.Store(int64(80 * time.Second))
	if _, err := rd.Info(ctx); err != nil {
		t.Errorf("info at +80s: %v", err)
	}
	// 95s in (65s after the touch): the TTL has lapsed; the sweep runs
	// on the stats touch even though the pool's machine is still held.
	offset.Store(int64(95 * time.Second))
	st := d.server.Stats()
	if st.Datasets.Count != 0 || st.Datasets.Expired != 1 || st.Datasets.ResidentBytes != 0 {
		t.Errorf("dataset survived its TTL: %+v", st.Datasets)
	}
	if _, err := rd.Select(ctx, 1); !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Errorf("query after eviction = %v, want ErrDatasetNotFound", err)
	}

	if err := <-slowDone; err != nil {
		t.Errorf("slow query: %v", err)
	}
}

// TestDatasetHandlerValidation pins status + wire code for the dataset
// endpoints' bad-request classes, like the query-endpoint table test.
func TestDatasetHandlerValidation(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{Limits: serve.Limits{MaxProcs: 4, MaxRanks: 4}})
	defer d.close()

	putCases := []struct {
		name, path, body string
		status           int
		code             parselclient.Code
	}{
		{"bad id char", "/v1/datasets/no%20spaces", "{}", 400, parselclient.CodeBadDatasetID},
		{"id too long", "/v1/datasets/" + strings.Repeat("x", 200), "{}", 400, parselclient.CodeBadDatasetID},
		{"bad json", "/v1/datasets/ok", "{", 400, parselclient.CodeBadJSON},
		{"missing shards", "/v1/datasets/ok", "{}", 400, parselclient.CodeMissingField},
		{"too many shards", "/v1/datasets/ok", `{"shards": [[1],[2],[3],[4],[5]]}`, 400, parselclient.CodeLimitExceeded},
	}
	for _, tc := range putCases {
		t.Run("put/"+tc.name, func(t *testing.T) {
			status, eb := putRaw(t, d, tc.path, tc.body)
			if status != tc.status || eb.Error.Code != tc.code {
				t.Errorf("%s %q: %d %q, want %d %q",
					tc.path, tc.body, status, eb.Error.Code, tc.status, tc.code)
			}
		})
	}

	if _, err := d.client.Dataset("ok").Upload(context.Background(), [][]int64{{1, 2}, {3}}); err != nil {
		t.Fatal(err)
	}
	queryCases := []struct {
		name, body string
		status     int
		code       parselclient.Code
	}{
		{"bad json", "{", 400, parselclient.CodeBadJSON},
		{"missing kind", "{}", 400, parselclient.CodeMissingField},
		{"unknown kind", `{"kind": "mode"}`, 400, parselclient.CodeBadKind},
		{"shards not accepted as kind", `{"kind": "shards"}`, 400, parselclient.CodeBadKind},
		{"select without rank", `{"kind": "select"}`, 400, parselclient.CodeMissingField},
		{"quantile out of range", `{"kind": "quantile", "q": 1.5}`, 400, parselclient.CodeBadQuantile},
		{"too many ranks", `{"kind": "ranks", "ranks": [1,1,1,1,1]}`, 400, parselclient.CodeLimitExceeded},
		{"negative timeout", `{"kind": "median", "timeout_ms": -1}`, 400, parselclient.CodeLimitExceeded},
		{"rank out of population", `{"kind": "select", "rank": 99}`, 400, parselclient.CodeRankRange},
		{"good median", `{"kind": "median"}`, 200, ""},
	}
	for _, tc := range queryCases {
		t.Run("query/"+tc.name, func(t *testing.T) {
			status, eb := postRaw(t, d, "/v1/datasets/ok/query", tc.body)
			if status != tc.status || eb.Error.Code != tc.code {
				t.Errorf("%q: %d %q, want %d %q", tc.body, status, eb.Error.Code, tc.status, tc.code)
			}
		})
	}

	// Routing mistakes: wrong methods and unknown sub-operations.
	res, err := d.ts.Client().Post(d.ts.URL+"/v1/datasets/ok", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 405 {
		t.Errorf("POST on dataset id: %d, want 405", res.StatusCode)
	}
	res, err = d.ts.Client().Get(d.ts.URL + "/v1/datasets/ok/query")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 405 {
		t.Errorf("GET on query: %d, want 405", res.StatusCode)
	}
	status, eb := postRaw(t, d, "/v1/datasets/ok/compact", "{}")
	if status != 404 || eb.Error.Code != parselclient.CodeNotFound {
		t.Errorf("unknown sub-op: %d %q, want 404 not_found", status, eb.Error.Code)
	}
}

// TestDatasetStorm mixes uploads, queries, deletes and clock-driven TTL
// evictions on a single dataset id from many goroutines — run under
// -race this is the registry's consistency stress. Every outcome must
// be structured (200, the typed not-found, or the typed budget
// rejection), and the final gauges must balance.
func TestDatasetStorm(t *testing.T) {
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4},
		serve.Options{DatasetTTL: time.Minute, QueueDepth: 256, MaxResidentBytes: 1 << 20})
	defer d.close()

	base := time.Now()
	var offset atomic.Int64
	d.server.SetNowForTest(func() time.Time {
		return base.Add(time.Duration(offset.Load()))
	})

	shards := workload.Generate(workload.Random, 2000, 4, 5)
	rd := d.client.Dataset("hot")
	var uploads, queries, notFound atomic.Int64

	const goroutines = 24
	const iters = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g % 4 {
				case 0: // uploader: re-PUT the same id
					if _, err := rd.Upload(ctx, shards); err != nil {
						t.Errorf("uploader: %v", err)
						return
					}
					uploads.Add(1)
				case 1, 2: // querier: any structured outcome is legal
					_, err := rd.Median(ctx)
					switch {
					case err == nil:
						queries.Add(1)
					case errors.Is(err, parselclient.ErrDatasetNotFound):
						notFound.Add(1)
					default:
						t.Errorf("querier: unstructured outcome %v", err)
						return
					}
				case 3: // deleter + clock mover
					if i%3 == 0 {
						// Lapse the TTL under the storm: every resident
						// dataset not re-touched is evicted.
						offset.Add(int64(2 * time.Minute))
					}
					_, err := rd.Delete(ctx)
					if err != nil && !errors.Is(err, parselclient.ErrDatasetNotFound) {
						t.Errorf("deleter: unstructured outcome %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := d.server.Stats()
	if st.Datasets.Uploads != uploads.Load() {
		t.Errorf("server counted %d uploads, clients made %d", st.Datasets.Uploads, uploads.Load())
	}
	if st.Datasets.Queries != queries.Load() {
		t.Errorf("server counted %d dataset queries, clients saw %d OK", st.Datasets.Queries, queries.Load())
	}
	if got := st.Datasets.NotFound; got < notFound.Load() {
		t.Errorf("server counted %d not-founds, clients saw at least %d", got, notFound.Load())
	}
	// The budget ledger balances: either one resident dataset with its
	// exact byte count, or none and zero bytes.
	switch st.Datasets.Count {
	case 0:
		if st.Datasets.ResidentBytes != 0 {
			t.Errorf("empty registry holds %d bytes", st.Datasets.ResidentBytes)
		}
	case 1:
		var n int64
		for _, sh := range shards {
			n += int64(len(sh))
		}
		if st.Datasets.ResidentBytes != n*8 {
			t.Errorf("one dataset resident, ledger says %d bytes, want %d", st.Datasets.ResidentBytes, n*8)
		}
	default:
		t.Errorf("storm on one id left %d datasets resident", st.Datasets.Count)
	}
	sum := st.Server.OK + st.Server.Timeouts + st.Server.Rejected +
		st.Server.ClientErrors + st.Server.ServerErrors
	if st.Server.Requests != sum {
		t.Errorf("request accounting leak: %d requests, outcomes sum to %d: %+v",
			st.Server.Requests, sum, st.Server)
	}

	// Quiesced pool: everything checked back in.
	if pst := d.pool.Stats(); pst.Resident != pst.Idle {
		t.Errorf("pool gauges after storm: %+v", pst)
	}
}
