package parsel_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/workload"
	"parsel/parselclient"
)

// TestDaemonPoolTimeoutTyped is the deterministic end-to-end deadline
// test: the daemon pool's only machine is held checked out via the test
// hook (so there is no race about how long it stays busy), a
// deadline-carrying HTTP query must come back as the typed 429
// pool_timeout that errors.Is-matches parsel.ErrPoolTimeout, and after
// the machine is released the identical query succeeds. This pins the
// whole chain: Pool.checkout context plumbing -> serve's error mapping
// -> the client's typed-error reconstruction.
func TestDaemonPoolTimeoutTyped(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := serve.New(serve.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := parselclient.New(ts.URL, parselclient.WithHTTPClient(ts.Client()))
	shards := workload.Generate(workload.Random, 4000, 4, 9)
	ctx := context.Background()

	release, err := pool.CheckoutForTest(4)
	if err != nil {
		t.Fatal(err)
	}
	hurried := parselclient.New(ts.URL, parselclient.WithHTTPClient(ts.Client()),
		parselclient.WithLimits(parselclient.ClientLimits{QueryTimeout: 10 * time.Millisecond}))
	_, err = hurried.Over(shards).Median(ctx)
	var apiErr *parselclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("held machine: err %v, want *APIError", err)
	}
	if apiErr.Status != 429 || apiErr.Code != parselclient.CodePoolTimeout {
		t.Errorf("held machine: %d %s, want 429 %s",
			apiErr.Status, apiErr.Code, parselclient.CodePoolTimeout)
	}
	if !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Errorf("wire error %v does not match parsel.ErrPoolTimeout", err)
	}

	// Same over the multi-value and summary surfaces.
	if _, _, err := hurried.Over(shards).Quantiles(ctx, []float64{0.5, 0.9}); !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Errorf("quantiles while held: %v", err)
	}
	if _, _, err := hurried.Over(shards).Summary(ctx); !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Errorf("summary while held: %v", err)
	}

	st := pool.Stats()
	if st.Timeouts < 3 {
		t.Errorf("pool recorded %d timeouts, want >= 3", st.Timeouts)
	}

	release()
	res, err := client.Over(shards).Median(ctx)
	if err != nil {
		t.Fatalf("released machine: %v", err)
	}
	direct, err := pool.Over(shards).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != direct.Value || res.SimSeconds != direct.SimSeconds {
		t.Errorf("released machine: %d (sim %g), want %d (sim %g)",
			res.Value, res.SimSeconds, direct.Value, direct.SimSeconds)
	}
}
