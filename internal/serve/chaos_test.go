package serve_test

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsel"
	"parsel/internal/faults"
	"parsel/internal/serve"
	"parsel/internal/workload"
	"parsel/parselclient"
)

// The chaos suite: the differential e2e catalogue replayed through
// deterministic fault injection. The resilience contract under test is
// that a retrying client sees NO errors and BIT-IDENTICAL results
// (values and simulated metrics) through a transport that drops,
// delays, truncates, corrupts and rate-limits ~20% of everything — and
// that the same seed reproduces the same fault sequence exactly.

// chaosPolicy is the retry policy the chaos tests run under: enough
// attempts that a seeded 20% fault stream cannot exhaust them, no
// budget (the harness injects the outage on purpose), fake-clock
// backoff so the suite runs at full speed.
func chaosPolicy(seed uint64) parselclient.RetryPolicy {
	return parselclient.RetryPolicy{
		MaxAttempts: 12,
		BudgetRatio: -1,
		Seed:        seed,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

// chaosClient wires a client to d through in's fault-injecting
// transport.
func chaosClient(d *daemon, in *faults.Injector) *parselclient.Client {
	hc := &http.Client{Transport: in.Transport(d.ts.Client().Transport)}
	return parselclient.New(d.ts.URL, parselclient.WithHTTPClient(hc), parselclient.WithRetry(chaosPolicy(99)))
}

// TestDaemonChaosDifferentialE2E replays the differential workload
// catalogue through a seeded 20%-fault transport: every query must
// succeed (the faults are all retryable) with value and simulated
// metrics bit-identical to an undisturbed in-process pool — and a
// second run with the same seed must inject the identical fault
// sequence.
func TestDaemonChaosDifferentialE2E(t *testing.T) {
	shapes := e2eShapes()
	if testing.Short() {
		shapes = shapes[:6]
	}
	ctx := context.Background()
	oracle, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	run := func(t *testing.T, seed uint64) []faults.Event {
		d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{})
		defer d.close()
		in := faults.New(faults.Options{
			Seed:  seed,
			Probs: faults.Uniform(0.20),
			Sleep: func(time.Duration) {},
		})
		c := chaosClient(d, in)

		for _, shape := range shapes {
			sorted := workload.Flatten(shape.shards)
			slices.Sort(sorted)
			n := int64(len(sorted))

			rank := (n + 1) / 2
			got, err := c.Select(ctx, shape.shards, rank)
			if err != nil {
				t.Fatalf("%s: select through faults: %v", shape.name, err)
			}
			want, err := oracle.Select(shape.shards, rank)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != sorted[rank-1] {
				t.Errorf("%s: select rank %d = %d, sort oracle says %d",
					shape.name, rank, got.Value, sorted[rank-1])
			}
			if got.Value != want.Value || simOf(got.Report) != simOf(want.Report) {
				t.Errorf("%s: select diverges through faults:\nhttp: %d %+v\npool: %d %+v",
					shape.name, got.Value, simOf(got.Report), want.Value, simOf(want.Report))
			}

			qs := []float64{0, 0.5, 1}
			gv, grep, err := c.Quantiles(ctx, shape.shards, qs)
			if err != nil {
				t.Fatalf("%s: quantiles through faults: %v", shape.name, err)
			}
			wv, wrep, err := oracle.Quantiles(shape.shards, qs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gv, wv) || simOf(grep) != simOf(wrep) {
				t.Errorf("%s: quantiles diverge through faults: http %v %+v, pool %v %+v",
					shape.name, gv, simOf(grep), wv, simOf(wrep))
			}

			gfn, gr, err := c.Summary(ctx, shape.shards)
			if err != nil {
				t.Fatalf("%s: summary through faults: %v", shape.name, err)
			}
			wfn, wr, err := oracle.Summary(shape.shards)
			if err != nil {
				t.Fatal(err)
			}
			if gfn != wfn || simOf(gr) != simOf(wr) {
				t.Errorf("%s: summary diverges through faults: http %+v, pool %+v",
					shape.name, gfn, wfn)
			}
		}

		if in.Faults() == 0 {
			t.Fatal("the 20% injector never fired; the suite proved nothing")
		}
		if st := c.RetryStats(); st.Retries == 0 {
			t.Errorf("client retried nothing against a 20%% fault stream: %+v", st)
		}
		return in.History()
	}

	h1 := run(t, 20260807)
	h2 := run(t, 20260807)
	if !slices.Equal(h1, h2) {
		t.Errorf("same seed injected different fault sequences across runs (%d vs %d events)",
			len(h1), len(h2))
	}
}

// TestDaemonChaosServerMiddleware splices the injector into the
// daemon's own handler chain (Options.Middleware): server-side 500/429
// bursts and connection aborts must likewise vanish behind the
// retrying client, and a deliberate abort must NOT be counted as a
// recovered panic.
func TestDaemonChaosServerMiddleware(t *testing.T) {
	in := faults.New(faults.Options{Seed: 7, Probs: faults.Uniform(0.20),
		Sleep: func(time.Duration) {}})
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2},
		serve.Options{Middleware: in.Middleware()})
	defer d.close()
	c := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithRetry(chaosPolicy(5)))
	ctx := context.Background()

	shards := workload.Generate(workload.Random, 4000, 4, 9)
	sorted := workload.Flatten(shards)
	slices.Sort(sorted)
	wantMedian := sorted[(int64(len(sorted))+1)/2-1]
	for i := 0; i < 40; i++ {
		res, err := c.Median(ctx, shards)
		if err != nil {
			t.Fatalf("median %d through server-side faults: %v", i, err)
		}
		if res.Value != wantMedian {
			t.Fatalf("median %d = %d through faults, want %d", i, res.Value, wantMedian)
		}
	}
	if in.Faults() == 0 {
		t.Fatal("the server-side injector never fired")
	}
	if st := d.server.Stats(); st.Server.Panics != 0 {
		t.Errorf("injected connection aborts were miscounted as recovered panics: %+v", st.Server)
	}
}

// TestDaemonPanicRecovery pins the recovery middleware: a panicking
// handler answers a structured 500 internal (counted in Panics and
// ServerErrors), the daemon survives, and a retrying client heals the
// fault without its caller noticing.
func TestDaemonPanicRecovery(t *testing.T) {
	var fired atomic.Bool
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") && !fired.Swap(true) {
				panic("injected handler panic")
			}
			next.ServeHTTP(w, r)
		})
	}
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2},
		serve.Options{Middleware: mw, Logger: slog.New(slog.DiscardHandler)})
	defer d.close()
	ctx := context.Background()
	shards := [][]int64{{3, 1, 4}, {1, 5}}

	// A non-retrying client sees the structured 500.
	_, err := d.client.Median(ctx, shards)
	var api *parselclient.APIError
	if !errors.As(err, &api) || api.Status != 500 || api.Code != parselclient.CodeInternal {
		t.Fatalf("panicking handler answered %v, want a structured 500 internal", err)
	}

	// The daemon is fine afterwards.
	if res, err := d.client.Median(ctx, shards); err != nil || res.Value != 3 {
		t.Fatalf("daemon did not survive the panic: %v %v", res.Value, err)
	}
	st := d.server.Stats()
	if st.Server.Panics != 1 || st.Server.ServerErrors == 0 {
		t.Errorf("panic accounting: %+v, want Panics=1 and a ServerError", st.Server)
	}

	// A retrying client heals the same fault invisibly.
	fired.Store(false)
	rc := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithRetry(chaosPolicy(3)))
	if res, err := rc.Median(ctx, shards); err != nil || res.Value != 3 {
		t.Errorf("retrying client surfaced the recovered panic: %v %v", res.Value, err)
	}
}

// The deadline-propagation acceptance test lives in the root package
// (TestDaemonDeadlinePropagation, daemon_deadline_test.go): holding
// the pool's only machine deterministically needs the
// Pool.CheckoutForTest hook, which only the root test binary sees.

// TestDaemonChaosSnapshotPersistFailure pins graceful degradation of
// durability: with the snapshot directory yanked out from under the
// daemon, an upload still succeeds (persistence must never fail the
// write path), persist_errors counts the failure, /healthz degrades to
// 207 — and the first successful persist heals it back to 200.
func TestDaemonChaosSnapshotPersistFailure(t *testing.T) {
	sdir := filepath.Join(t.TempDir(), "snaps")
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2},
		serve.Options{SnapshotDir: sdir, Logger: slog.New(slog.DiscardHandler)})
	defer d.close()
	ctx := context.Background()
	ds := d.client.Dataset("chaos")

	if _, err := ds.Upload(ctx, [][]int64{{3, 1, 4}, {1, 5}}); err != nil {
		t.Fatal(err)
	}
	d.server.FlushSnapshots()
	if hs, err := d.client.Healthz(ctx); err != nil || hs.Status != parselclient.HealthOK {
		t.Fatalf("healthy daemon reports %+v (%v), want ok", hs, err)
	}

	// Yank the disk. The next persist fails; the upload must not.
	if err := os.RemoveAll(sdir); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Upload(ctx, [][]int64{{9, 8}, {7, 6, 5}}); err != nil {
		t.Fatalf("upload failed on a persistence fault, violating the never-fail-the-upload contract: %v", err)
	}
	d.server.FlushSnapshots()
	st := d.server.Stats()
	if st.Snapshots.PersistErrors == 0 || !st.Snapshots.Degraded {
		t.Errorf("snapshot stats after disk loss: %+v, want persist_errors>0 and degraded", st.Snapshots)
	}
	hs, err := d.client.Healthz(ctx)
	if err != nil || hs.Status != parselclient.HealthDegraded {
		t.Errorf("healthz after disk loss: %+v (%v), want degraded", hs, err)
	}
	// Degraded still serves: Health is nil, queries and uploads work.
	if err := d.client.Health(ctx); err != nil {
		t.Errorf("degraded daemon refused traffic: %v", err)
	}
	if res, err := ds.Median(ctx); err != nil || res.Value != 7 {
		t.Errorf("degraded daemon misanswered a query: %v %v", res.Value, err)
	}

	// Give the disk back; the next successful persist clears the state.
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Upload(ctx, [][]int64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	d.server.FlushSnapshots()
	if hs, err = d.client.Healthz(ctx); err != nil || hs.Status != parselclient.HealthOK {
		t.Errorf("healthz after recovery: %+v (%v), want ok", hs, err)
	}
	if st = d.server.Stats(); st.Snapshots.Degraded {
		t.Errorf("degraded flag stuck after a successful persist: %+v", st.Snapshots)
	}
}
