package parselclient

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// TestTimeoutMSExpiredDeadline pins the expired-budget mapping: a
// context whose deadline already passed must yield the 1ms floor, never
// 0 — on the wire 0 means "no timeout", the opposite of a spent budget.
func TestTimeoutMSExpiredDeadline(t *testing.T) {
	c := New("http://unused")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if got := c.timeoutMS(ctx); got != 1 {
		t.Errorf("expired deadline: timeout_ms = %d, want the 1ms floor", got)
	}
	// No deadline and no QueryTimeout still means "no timeout".
	if got := c.timeoutMS(context.Background()); got != 0 {
		t.Errorf("unbounded context: timeout_ms = %d, want 0", got)
	}
	// A QueryTimeout alone keeps working.
	c = New("http://unused", WithLimits(ClientLimits{QueryTimeout: 250 * time.Millisecond}))
	if got := c.timeoutMS(context.Background()); got != 250 {
		t.Errorf("QueryTimeout 250ms: timeout_ms = %d, want 250", got)
	}
	// An expired deadline beats a generous QueryTimeout.
	if got := c.timeoutMS(ctx); got != 1 {
		t.Errorf("expired deadline under QueryTimeout: timeout_ms = %d, want 1", got)
	}
}

// TestDecodeErrorRuneBoundary pins that quoting an over-long non-JSON
// error body truncates on a rune boundary: a cut mid-UTF-8-sequence
// would mangle the message.
func TestDecodeErrorRuneBoundary(t *testing.T) {
	// 199 ASCII bytes then a 3-byte rune straddling the 200-byte cut.
	body := strings.Repeat("x", 199) + "€€" // €, bytes 199..201 and 202..204
	err := decodeError(http.StatusBadGateway, []byte(body))
	api, ok := err.(*APIError)
	if !ok {
		t.Fatalf("decodeError returned %T, want *APIError", err)
	}
	if !utf8.ValidString(api.Message) {
		t.Errorf("truncated message is not valid UTF-8: %q", api.Message)
	}
	if !strings.HasSuffix(api.Message, "...") {
		t.Errorf("truncated message %q does not end in ...", api.Message)
	}
	if want := strings.Repeat("x", 199) + "..."; api.Message != want {
		t.Errorf("message %q, want %q (rune backed off the 200-byte cut)", api.Message, want)
	}
	// A short body is quoted untouched.
	if api := decodeError(http.StatusBadGateway, []byte("plain")).(*APIError); api.Message != "plain" {
		t.Errorf("short message %q, want %q", api.Message, "plain")
	}
}

// timeoutEcho records the timeout_ms of every request body it sees,
// failing the first n attempts so the client retries.
type timeoutEcho struct {
	n        int
	timeouts []int64
}

func (h *timeoutEcho) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req RequestOf[int64]
	body, _ := io.ReadAll(r.Body)
	_ = json.Unmarshal(body, &req)
	h.timeouts = append(h.timeouts, req.TimeoutMS)
	w.Header().Set("Content-Type", "application/json")
	if len(h.timeouts) <= h.n {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: CodeInternal, Message: "injected"}})
		return
	}
	io.WriteString(w, `{"value":1,"report":{}}`)
}

// TestRetryRecomputesTimeoutMS pins the stale-deadline fix: each retry
// attempt's timeout_ms is recomputed from the context's remaining
// budget, so a server is never promised time the caller no longer has.
func TestRetryRecomputesTimeoutMS(t *testing.T) {
	h := &timeoutEcho{n: 1}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithRetry(RetryPolicy{
		MaxAttempts: 3,
		Sleep: func(ctx context.Context, d time.Duration) error {
			time.Sleep(20 * time.Millisecond) // burn visible budget between attempts
			return nil
		},
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Select(ctx, [][]int64{{3, 1, 4}}, 1); err != nil {
		t.Fatal(err)
	}
	if len(h.timeouts) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(h.timeouts))
	}
	if h.timeouts[0] == 0 || h.timeouts[1] == 0 {
		t.Fatalf("timeout_ms missing: %v", h.timeouts)
	}
	if h.timeouts[1] >= h.timeouts[0] {
		t.Errorf("retry attempt's timeout_ms %d did not shrink below the first attempt's %d",
			h.timeouts[1], h.timeouts[0])
	}
}

// TestMarshalFailureIsPermanent pins that a body that cannot marshal
// surfaces immediately instead of being retried as a transport fault.
func TestMarshalFailureIsPermanent(t *testing.T) {
	err := &permanentError{err: io.ErrUnexpectedEOF}
	if Retryable(err) {
		t.Error("permanentError classified retryable")
	}
}

// TestQueryManyResultErr pins the per-item error mapping: batch items
// surface the same typed errors a direct query would.
func TestQueryManyResultErr(t *testing.T) {
	ok := QueryManyResultOf[int64]{}
	if err := ok.Err(); err != nil {
		t.Errorf("success item: Err() = %v, want nil", err)
	}
	item := QueryManyResultOf[int64]{Error: &ErrorDetail{Code: CodeRankRange, Message: "rank 99 of 3"}}
	err := item.Err()
	api, isAPI := err.(*APIError)
	if !isAPI {
		t.Fatalf("Err() = %T, want *APIError", err)
	}
	if api.Status != http.StatusBadRequest || api.Code != CodeRankRange {
		t.Errorf("Err() = %d %s, want 400 %s", api.Status, api.Code, CodeRankRange)
	}
	timeout := QueryManyResultOf[int64]{Error: &ErrorDetail{Code: CodePoolTimeout, Message: "busy"}}
	if api := timeout.Err().(*APIError); api.Status != http.StatusTooManyRequests {
		t.Errorf("pool_timeout maps to %d, want 429", api.Status)
	}
}
