package parselclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// capturingCollector records every ClientOp call.
type capturingCollector struct {
	mu  sync.Mutex
	ops []struct {
		op    string
		delta RetryStats
		err   error
	}
}

func (cc *capturingCollector) ClientOp(op string, delta RetryStats, err error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.ops = append(cc.ops, struct {
		op    string
		delta RetryStats
		err   error
	}{op, delta, err})
}

// TestCollectorDeltas pins that the Collector hook sees each logical
// operation exactly once, with the retry activity of that operation
// alone as its delta.
func TestCollectorDeltas(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":{"code":"internal","message":"boom"}}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentTypeJSON)
		w.Write([]byte(`{"server":{},"pool":{},"latency":{}}`))
	}))
	defer ts.Close()

	cc := &capturingCollector{}
	c := New(ts.URL,
		WithCollector(cc),
		WithRetry(RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   time.Millisecond,
			Seed:        1,
			Sleep:       func(context.Context, time.Duration) error { return nil },
		}))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.ops) != 1 {
		t.Fatalf("collector saw %d ops, want 1: %+v", len(cc.ops), cc.ops)
	}
	got := cc.ops[0]
	if got.op != "GET /v1/stats" {
		t.Errorf("op = %q, want %q", got.op, "GET /v1/stats")
	}
	want := RetryStats{Requests: 1, Attempts: 3, Retries: 2}
	if got.delta != want {
		t.Errorf("delta = %+v, want %+v", got.delta, want)
	}
	if got.err != nil {
		t.Errorf("err = %v, want nil", got.err)
	}
	// The delta must equal the client's cumulative movement for this
	// single-op client.
	if cum := c.RetryStats(); cum != want {
		t.Errorf("cumulative = %+v, want %+v", cum, want)
	}
}

func TestOpLabel(t *testing.T) {
	cases := []struct{ method, path, want string }{
		{"GET", "/v1/stats", "GET /v1/stats"},
		{"PUT", "/v1/datasets/orders%2F2024", "PUT /v1/datasets/{id}"},
		{"POST", "/v1/datasets/abc/query", "POST /v1/datasets/{id}/query"},
		{"POST", "/v1/datasets/abc/querymany", "POST /v1/datasets/{id}/querymany"},
		{"POST", "/v1/select", "POST /v1/select"},
	}
	for _, tc := range cases {
		if got := opLabel(tc.method, tc.path); got != tc.want {
			t.Errorf("opLabel(%s, %s) = %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}

// TestCollectorNilAllocs pins the documented contract that a client
// without a collector pays nothing for the hook: the per-operation
// delta stays nil and the emit funnel allocates nothing.
func TestCollectorNilAllocs(t *testing.T) {
	c := New("http://127.0.0.1:0")
	allocs := testing.AllocsPerRun(1000, func() {
		delta := c.opDelta()
		c.emitOp(http.MethodGet, "/v1/stats", delta, nil)
	})
	if allocs != 0 {
		t.Errorf("nil-collector funnel allocates %v per op, want 0", allocs)
	}
}

// TestRequestIDContext pins the ctx helpers and that the stamped header
// reaches the wire unchanged across retries.
func TestRequestIDContext(t *testing.T) {
	if _, ok := RequestIDFrom(context.Background()); ok {
		t.Error("empty context yielded a request id")
	}
	ctx := WithRequestID(context.Background(), "cafe0123deadbeef")
	if id, ok := RequestIDFrom(ctx); !ok || id != "cafe0123deadbeef" {
		t.Errorf("RequestIDFrom = %q %v", id, ok)
	}

	var mu sync.Mutex
	var seen []string
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(RequestIDHeader))
		mu.Unlock()
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":{"code":"internal","message":"boom"}}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentTypeJSON)
		w.Write([]byte(`{"server":{},"pool":{},"latency":{}}`))
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetry(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Seed:        1,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}))
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	mu.Lock()
	if len(seen) != 2 {
		mu.Unlock()
		t.Fatalf("server saw %d attempts, want 2", len(seen))
	}
	for i, id := range seen {
		if id != "cafe0123deadbeef" {
			t.Errorf("attempt %d carried id %q, want the caller's", i+1, id)
		}
	}
	// Without WithRequestID the client generates one id per operation
	// and keeps it across that operation's attempts.
	seen = nil
	mu.Unlock()
	calls.Store(0)
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] == "" || seen[0] != seen[1] {
		t.Errorf("generated id not stable across retries: %v", seen)
	}
}

// TestSideRequestsCarryTokenAndID pins that the requests built outside
// the retry loop — Healthz and DatasetSnapshot — carry the bearer token,
// the caller's request id and the deadline like every other call, and
// that Healthz reads at most 1 MiB of body.
func TestSideRequestsCarryTokenAndID(t *testing.T) {
	type seen struct{ path, auth, id, deadline string }
	var mu sync.Mutex
	var got []seen
	var huge atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, seen{r.URL.Path, r.Header.Get("Authorization"),
			r.Header.Get(RequestIDHeader), r.Header.Get(DeadlineHeader)})
		mu.Unlock()
		w.Header().Set("Content-Type", ContentTypeJSON)
		if r.URL.Path != "/healthz" {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":{"code":"dataset_not_found","message":"no"}}`))
			return
		}
		if huge.Load() {
			// Valid JSON, but only past the first MiB.
			w.Write([]byte(strings.Repeat(" ", 1<<20)))
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := New(ts.URL, WithHTTPClient(ts.Client()), WithToken("tok-acme"))
	ctx, cancel := context.WithTimeout(WithRequestID(context.Background(), "cafe0123deadbeef"), time.Minute)
	defer cancel()
	if hs, err := c.Healthz(ctx); err != nil || hs.Status != HealthOK {
		t.Fatalf("Healthz = %+v, %v", hs, err)
	}
	if _, _, err := c.DatasetSnapshot(ctx, "ds"); !errors.Is(err, ErrDatasetNotFound) {
		t.Fatalf("DatasetSnapshot error = %v, want ErrDatasetNotFound", err)
	}
	if len(got) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(got))
	}
	for _, s := range got {
		if s.auth != "Bearer tok-acme" || s.id != "cafe0123deadbeef" || s.deadline == "" {
			t.Errorf("%s arrived with Authorization %q, request id %q, deadline %q",
				s.path, s.auth, s.id, s.deadline)
		}
	}

	huge.Store(true)
	if hs, err := c.Healthz(ctx); err == nil {
		t.Errorf("Healthz read a body past 1 MiB: %+v", hs)
	}
}
