package parsel_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/parselclient"
)

// TestDaemonDeadlinePropagation is the deterministic end-to-end test of
// the X-Parsel-Deadline header: with the pool's only machine held
// checked out via the test hook (no race about how long it stays busy),
// a request whose body asks for NO timeout but whose header carries a
// nearly-spent deadline budget must be refused by admission as a 429
// pool_timeout — fast, and without ever checking out a machine
// (asserted via the pool gauges). Without header propagation the same
// request would camp on the 30s server default.
func TestDaemonDeadlinePropagation(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := serve.New(serve.Options{Pool: pool, DefaultTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	release, err := pool.CheckoutForTest(2)
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()

	post := func(deadlineMS string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/median",
			strings.NewReader(`{"shards": [[3, 1], [2]]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if deadlineMS != "" {
			req.Header.Set(parselclient.DeadlineHeader, deadlineMS)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("deadline-stamped request: %v", err)
		}
		return resp
	}

	start := time.Now()
	resp := post("20")
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("deadline-stamped request got %d %s, want 429 pool_timeout", resp.StatusCode, data)
	}
	var eb parselclient.ErrorBody
	if json.Unmarshal(data, &eb) != nil || eb.Error.Code != parselclient.CodePoolTimeout {
		t.Errorf("deadline-stamped request body %s, want code pool_timeout", data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 pool_timeout carries no Retry-After hint")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("20ms header budget waited %v; the header was not honored", waited)
	}

	after := pool.Stats()
	if after.Timeouts != before.Timeouts+1 {
		t.Errorf("pool timeouts %d -> %d, want exactly one admission timeout",
			before.Timeouts, after.Timeouts)
	}
	if after.Creates != before.Creates || after.Hits != before.Hits {
		t.Errorf("expired-deadline request touched a machine: %+v -> %+v", before, after)
	}

	// The retrying client stamps the header from its context deadline;
	// while the machine is held, the whole operation resolves to the
	// typed pool timeout rather than hanging into the server default.
	client := parselclient.New(ts.URL, parselclient.WithHTTPClient(ts.Client()))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err = client.Median(ctx, [][]int64{{3, 1}, {2}})
	cancel()
	if !errors.Is(err, parsel.ErrPoolTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("client with expiring context got %v, want a deadline-shaped refusal", err)
	}

	// Released, the identical header-stamped request succeeds: the
	// header bounds only the wait, never the query.
	release()
	resp2 := post("30000")
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after release: %d %s, want 200", resp2.StatusCode, body2)
	}
	var qr parselclient.ResponseOf[int64]
	if json.Unmarshal(body2, &qr) != nil || qr.Value == nil || *qr.Value != 2 {
		t.Errorf("after release: body %s, want value 2", body2)
	}
}
