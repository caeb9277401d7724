package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/parselclient"
)

// postRaw sends a raw body at the daemon and decodes the structured
// error, if any.
func postRaw(t *testing.T, d *daemon, path, body string) (int, parselclient.ErrorBody) {
	t.Helper()
	res, err := d.ts.Client().Post(d.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var eb parselclient.ErrorBody
	_ = json.NewDecoder(res.Body).Decode(&eb)
	return res.StatusCode, eb
}

// TestDaemonRequestValidation pins the HTTP status and wire code for
// every class of bad request — the contract the fuzzer checks at the
// decoder level, here verified through the full handler stack.
func TestDaemonRequestValidation(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, serve.Options{
		Limits: serve.Limits{MaxBodyBytes: 1 << 16, MaxProcs: 8, MaxRanks: 16},
	})
	defer d.close()

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   parselclient.Code
	}{
		{"bad json", "/v1/select", `{`, 400, parselclient.CodeBadJSON},
		{"json array body", "/v1/select", `[]`, 400, parselclient.CodeBadJSON},
		{"missing shards", "/v1/select", `{"rank": 1}`, 400, parselclient.CodeMissingField},
		{"missing rank", "/v1/select", `{"shards": [[1]]}`, 400, parselclient.CodeMissingField},
		{"missing q", "/v1/quantile", `{"shards": [[1]]}`, 400, parselclient.CodeMissingField},
		{"missing qs", "/v1/quantiles", `{"shards": [[1]]}`, 400, parselclient.CodeMissingField},
		{"missing ranks", "/v1/ranks", `{"shards": [[1]]}`, 400, parselclient.CodeMissingField},
		{"missing k", "/v1/topk", `{"shards": [[1]]}`, 400, parselclient.CodeMissingField},
		{"rank zero", "/v1/select", `{"shards": [[1]], "rank": 0}`, 400, parselclient.CodeRankRange},
		{"rank negative", "/v1/select", `{"shards": [[1]], "rank": -2}`, 400, parselclient.CodeRankRange},
		{"rank too big", "/v1/select", `{"shards": [[1]], "rank": 2}`, 400, parselclient.CodeRankRange},
		{"k negative", "/v1/topk", `{"shards": [[1]], "k": -1}`, 400, parselclient.CodeRankRange},
		{"q above 1", "/v1/quantile", `{"shards": [[1]], "q": 1.5}`, 400, parselclient.CodeBadQuantile},
		{"q huge literal", "/v1/quantile", `{"shards": [[1]], "q": 1e999}`, 400, parselclient.CodeBadJSON},
		{"qs out of range", "/v1/quantiles", `{"shards": [[1]], "qs": [0.5, -0.5]}`, 400, parselclient.CodeBadQuantile},
		{"no shards", "/v1/select", `{"shards": [], "rank": 1}`, 400, parselclient.CodeNoShards},
		{"empty population", "/v1/select", `{"shards": [[],[]], "rank": 1}`, 400, parselclient.CodeNoData},
		{"too many shards", "/v1/median", `{"shards": [[1],[1],[1],[1],[1],[1],[1],[1],[1]]}`, 400, parselclient.CodeLimitExceeded},
		{"too many ranks", "/v1/ranks", `{"shards": [[1]], "ranks": [` + strings.Repeat("1,", 16) + `1]}`, 400, parselclient.CodeLimitExceeded},
		{"negative timeout", "/v1/median", `{"shards": [[1]], "timeout_ms": -1}`, 400, parselclient.CodeLimitExceeded},
		{"overflowing timeout", "/v1/median", `{"shards": [[1]], "timeout_ms": 9300000000000}`, 400, parselclient.CodeLimitExceeded},
		{"unknown endpoint", "/v1/nope", `{}`, 404, parselclient.CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, eb := postRaw(t, d, tc.path, tc.body)
			if status != tc.status || eb.Error.Code != tc.code {
				t.Errorf("%s %s: got %d %q, want %d %q",
					tc.path, tc.body, status, eb.Error.Code, tc.status, tc.code)
			}
			if status >= 400 && eb.Error.Message == "" {
				t.Errorf("%s: error without message", tc.name)
			}
		})
	}

	// Oversized body → 413 too_large.
	big := bytes.Repeat([]byte("7,"), 1<<16)
	body := `{"shards": [[` + string(big[:len(big)-1]) + `]], "rank": 1}`
	if status, eb := postRaw(t, d, "/v1/select", body); status != 413 || eb.Error.Code != parselclient.CodeTooLarge {
		t.Errorf("oversized body: %d %q, want 413 too_large", status, eb.Error.Code)
	}

	// Wrong method → 405 with Allow.
	res, err := d.ts.Client().Get(d.ts.URL + "/v1/select")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 405 || res.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET on query endpoint: %d Allow=%q", res.StatusCode, res.Header.Get("Allow"))
	}

	// The client maps validation codes back to the library's typed
	// errors.
	if _, err := d.client.Over([][]int64{{1}}).Select(context.Background(), 99); !errors.Is(err, parsel.ErrRankRange) {
		t.Errorf("rank_range over the wire: %v", err)
	}
	if _, err := d.client.Over([][]int64{{1}}).Quantile(context.Background(), 2); !errors.Is(err, parsel.ErrBadQuantile) {
		t.Errorf("bad_quantile over the wire: %v", err)
	}

	// Validation failures must not poison the daemon: a good query
	// still works.
	res2, err := d.client.Over([][]int64{{3, 1}, {2}}).Median(context.Background())
	if err != nil || res2.Value != 2 {
		t.Errorf("median after error storm: %v %v", res2.Value, err)
	}
}

// TestServeOptionValidation pins construction-time rejection of
// nonsense knobs: a negative queue depth or timeout must be a clean
// error from New, not a panic or a silently-crippled server.
func TestServeOptionValidation(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := serve.New(serve.Options{}); err == nil {
		t.Error("New without a pool succeeded")
	}
	if _, err := serve.New(serve.Options{Pool: pool, QueueDepth: -5}); err == nil {
		t.Error("New with negative QueueDepth succeeded")
	}
	if _, err := serve.New(serve.Options{Pool: pool, DefaultTimeout: -time.Second}); err == nil {
		t.Error("New with negative DefaultTimeout succeeded")
	}
	if _, err := serve.New(serve.Options{Pool: pool, Limits: serve.Limits{MaxProcs: -1}}); err == nil {
		t.Error("New with negative MaxProcs succeeded")
	}
	if _, err := serve.New(serve.Options{Pool: pool}); err != nil {
		t.Errorf("New with defaults: %v", err)
	}
}

// TestClientNilContext pins the client's nil-context tolerance: the
// Pool methods document nil as "wait forever", and the HTTP client must
// honor the same convention instead of panicking.
func TestClientNilContext(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, serve.Options{})
	defer d.close()
	res, err := d.client.Over([][]int64{{3, 1}, {2}}).Median(nil)
	if err != nil || res.Value != 2 {
		t.Errorf("nil-context Median = %v, %v", res.Value, err)
	}
	if err := d.client.Health(nil); err != nil {
		t.Errorf("nil-context Health: %v", err)
	}
	if _, err := d.client.Stats(nil); err != nil {
		t.Errorf("nil-context Stats: %v", err)
	}
}

// TestDaemonTopKZero pins the k=0 edge across the wire: an empty JSON
// array, not null.
func TestDaemonTopKZero(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, serve.Options{})
	defer d.close()
	vals, _, err := d.client.Over([][]int64{{5, 2}, {8}}).TopK(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if vals == nil || len(vals) != 0 {
		t.Errorf("topk k=0 = %#v, want empty non-nil slice", vals)
	}
}
