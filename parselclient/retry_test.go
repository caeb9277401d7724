package parselclient

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// failNTimes answers the first n requests with (status, code) and every
// later one 200 with body. It also records the DeadlineHeader values
// seen. Safe for the sequential traffic these tests generate.
type failNTimes struct {
	n          int64
	status     int
	code       Code
	retryAfter string
	body       string

	calls     atomic.Int64
	deadlines []string
}

func (f *failNTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.deadlines = append(f.deadlines, r.Header.Get(DeadlineHeader))
	if f.calls.Add(1) <= f.n {
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.status)
		json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: f.code, Message: "injected"}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, f.body)
}

// noSleep is the fake-clock backoff for tests.
func noSleep(context.Context, time.Duration) error { return nil }

// retryClient builds a client against ts with the given policy.
func retryClient(ts *httptest.Server, p RetryPolicy) *Client {
	return New(ts.URL, WithHTTPClient(ts.Client()), WithRetry(p))
}

// TestRetryZeroPolicySingleAttempt pins backward compatibility: the
// zero-value policy never retries.
func TestRetryZeroPolicySingleAttempt(t *testing.T) {
	h := &failNTimes{n: 100, status: 500, code: CodeInternal}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{})
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("want error from a failing daemon")
	}
	if got := h.calls.Load(); got != 1 {
		t.Errorf("zero policy issued %d attempts, want 1", got)
	}
	if st := c.RetryStats(); st.Requests != 1 || st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("retry stats %+v, want one request, one attempt, no retries", st)
	}
}

// TestRetryRecoversFromTransientFaults checks the core loop: 5xx
// attempts are retried until the daemon answers, and the counters see
// it.
func TestRetryRecoversFromTransientFaults(t *testing.T) {
	h := &failNTimes{n: 2, status: 500, code: CodeInternal, body: `{}`}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{MaxAttempts: 5, Sleep: noSleep})
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("retries did not heal two transient 500s: %v", err)
	}
	st := c.RetryStats()
	if st.Attempts != 3 || st.Retries != 2 || st.GaveUp != 0 {
		t.Errorf("retry stats %+v, want 3 attempts / 2 retries / 0 gave-up", st)
	}
}

// TestRetryUploadIsIdempotent checks that dataset PUT retries like any
// read: upload-generation semantics make a replayed PUT safe.
func TestRetryUploadIsIdempotent(t *testing.T) {
	h := &failNTimes{n: 1, status: 500, code: CodeInternal,
		body: `{"id":"d","procs":2,"n":5,"bytes":40,"expires_in_ms":1000}`}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
	info, err := c.Dataset("d").Upload(context.Background(), [][]int64{{3, 1, 4}, {1, 5}})
	if err != nil {
		t.Fatalf("PUT did not retry the transient 500: %v", err)
	}
	if info.ID != "d" || info.N != 5 {
		t.Errorf("upload info %+v after retry", info)
	}
	if got := h.calls.Load(); got != 2 {
		t.Errorf("%d attempts, want 2", got)
	}
}

// TestRetryHonorsRetryAfter checks the server hint stretches the
// backoff and is surfaced on APIError for non-retrying clients.
func TestRetryHonorsRetryAfter(t *testing.T) {
	h := &failNTimes{n: 1, status: 429, code: CodeQueueFull, retryAfter: "2", body: `{}`}
	ts := httptest.NewServer(h)
	defer ts.Close()
	var slept []time.Duration
	c := retryClient(ts, RetryPolicy{MaxAttempts: 3,
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }})
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Errorf("backoff %v, want the 2s Retry-After hint to dominate the 50ms base", slept)
	}
	if st := c.RetryStats(); st.RetryAfterHonored != 1 {
		t.Errorf("retry stats %+v, want RetryAfterHonored=1", st)
	}

	// A non-retrying client surfaces the hint on the error instead.
	h.calls.Store(0)
	c2 := retryClient(ts, RetryPolicy{})
	_, err := c2.Stats(context.Background())
	var api *APIError
	if !errors.As(err, &api) || api.RetryAfter != 2*time.Second {
		t.Errorf("error %v carries RetryAfter %v, want 2s", err, api.RetryAfter)
	}
}

// TestRetryNonRetryableFailsFast checks deterministic verdicts are
// never retried.
func TestRetryNonRetryableFailsFast(t *testing.T) {
	h := &failNTimes{n: 100, status: 400, code: CodeRankRange}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{MaxAttempts: 5, Sleep: noSleep})
	rank := int64(99)
	_, err := c.Over([][]int64{{1}}).Select(context.Background(), rank)
	var api *APIError
	if !errors.As(err, &api) || api.Code != CodeRankRange {
		t.Fatalf("err %v, want rank_range", err)
	}
	if got := h.calls.Load(); got != 1 {
		t.Errorf("non-retryable error provoked %d attempts, want 1", got)
	}
}

// TestRetryBudgetStopsAmplification checks the token bucket: once the
// burst is spent, errors surface instead of multiplying load.
func TestRetryBudgetStopsAmplification(t *testing.T) {
	h := &failNTimes{n: 1 << 30, status: 500, code: CodeInternal}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{MaxAttempts: 100, BudgetBurst: 2, BudgetRatio: 1e-9, Sleep: noSleep})
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("want error once the budget is spent")
	}
	st := c.RetryStats()
	if st.Retries != 2 || st.BudgetExhausted != 1 {
		t.Errorf("retry stats %+v, want 2 retries then budget exhaustion", st)
	}
	// A second operation deposits ~nothing: no retries left at all.
	c.Stats(context.Background())
	if st = c.RetryStats(); st.BudgetExhausted != 2 || st.Retries != 2 {
		t.Errorf("retry stats %+v, want the drained bucket to refuse the second operation's retries", st)
	}
}

// TestRetryAttemptTimeoutIsRetryable checks a per-attempt deadline
// expiring does not end the operation while the caller's context is
// alive — and that exhausting attempts counts as giving up.
func TestRetryAttemptTimeoutIsRetryable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // stall until the attempt deadline fires
	}))
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{MaxAttempts: 3, AttemptTimeout: 20 * time.Millisecond, Sleep: noSleep})
	_, err := c.Stats(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want the attempt deadline to surface after retries", err)
	}
	st := c.RetryStats()
	if st.Attempts != 3 || st.GaveUp != 1 {
		t.Errorf("retry stats %+v, want 3 attempts and one gave-up", st)
	}
}

// TestRetryRespectsCallerDeadline checks the loop never sleeps past the
// caller's context deadline: with no budget to back off in, the last
// real error surfaces immediately.
func TestRetryRespectsCallerDeadline(t *testing.T) {
	h := &failNTimes{n: 100, status: 500, code: CodeInternal}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Hour, MaxDelay: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := c.Stats(ctx)
	var api *APIError
	if !errors.As(err, &api) || api.Status != 500 {
		t.Fatalf("err %v, want the server's 500 surfaced rather than a deadline error", err)
	}
	if got := h.calls.Load(); got != 1 {
		t.Errorf("%d attempts, want 1 (an hour-long backoff cannot fit a 200ms deadline)", got)
	}
	if st := c.RetryStats(); st.GaveUp != 1 {
		t.Errorf("retry stats %+v, want GaveUp=1", st)
	}
}

// TestDeadlineHeaderStamped checks end-to-end deadline propagation: a
// context deadline reaches the wire in milliseconds; no deadline, no
// header.
func TestDeadlineHeaderStamped(t *testing.T) {
	h := &failNTimes{body: `{}`}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := retryClient(ts, RetryPolicy{})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(h.deadlines) != 2 {
		t.Fatalf("saw %d requests, want 2", len(h.deadlines))
	}
	var ms int
	if _, err := errorsAsInt(h.deadlines[0], &ms); err != nil || ms <= 0 || ms > 500 {
		t.Errorf("deadline header %q, want integer milliseconds in (0, 500]", h.deadlines[0])
	}
	if h.deadlines[1] != "" {
		t.Errorf("deadline header %q on a request with no deadline, want none", h.deadlines[1])
	}
}

// errorsAsInt parses s as a base-10 int; a tiny helper so the header
// assertion reads clearly.
func errorsAsInt(s string, out *int) (int, error) {
	n := 0
	if s == "" {
		return 0, errors.New("empty")
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errors.New("not a number")
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n, nil
}

// TestRetryJitterDeterministicWithSeed pins the reproducibility hook:
// equal seeds draw equal backoff schedules.
func TestRetryJitterDeterministicWithSeed(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		h := &failNTimes{n: 4, status: 500, code: CodeInternal, body: `{}`}
		ts := httptest.NewServer(h)
		defer ts.Close()
		var slept []time.Duration
		c := retryClient(ts, RetryPolicy{MaxAttempts: 5, Seed: seed,
			Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }})
		if _, err := c.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
		return slept
	}
	a, b := schedule(42), schedule(42)
	if len(a) != 4 {
		t.Fatalf("schedule has %d sleeps, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules diverge at retry %d: %v vs %v", i, a, b)
		}
	}
}

// TestRetryableClassification pins the exported classification table.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"queue_full", &APIError{Status: 429, Code: CodeQueueFull}, true},
		{"pool_timeout", &APIError{Status: 429, Code: CodePoolTimeout}, true},
		{"shutting_down", &APIError{Status: 503, Code: CodeShuttingDown}, true},
		{"internal_500", &APIError{Status: 500, Code: CodeInternal}, true},
		{"opaque_429", &APIError{Status: 429, Code: CodeInternal}, true},
		{"opaque_502", &APIError{Status: 502, Code: CodeInternal}, true},
		{"not_implemented", &APIError{Status: 501, Code: CodeInternal}, false},
		{"rank_range", &APIError{Status: 400, Code: CodeRankRange}, false},
		{"not_found", &APIError{Status: 404, Code: CodeDatasetNotFound}, false},
		{"resident_budget", &APIError{Status: 413, Code: CodeResidentBudget}, false},
		{"too_large", &APIError{Status: 413, Code: CodeTooLarge}, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"transport", io.ErrUnexpectedEOF, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBackoffCap pins the exponential schedule shape.
func TestBackoffCap(t *testing.T) {
	p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond}
	for i, w := range want {
		if got := backoffCap(p, i+1); got != w {
			t.Errorf("backoffCap(retry %d) = %v, want %v", i+1, got, w)
		}
	}
}
