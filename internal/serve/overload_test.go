package serve_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/workload"
	"parsel/parselclient"
)

// waitStats polls the daemon's stats until cond holds, failing the test
// after five seconds — the synchronization primitive that keeps the
// overload tests deterministic instead of sleep-based.
func waitStats(t *testing.T, d *daemon, what string, cond func(parselclient.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(d.server.Stats()) {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s; stats: %+v", what, d.server.Stats())
}

// TestDaemonOverloadDeadlines saturates a single-machine daemon with
// slow queries and pins the overload contract end to end: requests with
// tight admission deadlines resolve to the typed 429 pool_timeout
// (mapped back to parsel.ErrPoolTimeout by the client), a 48-client
// storm under -race stays structured (every outcome is success,
// pool_timeout or queue_full — never a hang or a panic), the slow
// queries all complete, and after drain the pool audits clean: zero
// resident Selectors and no leaked goroutines.
// (TestDaemonPoolTimeoutTyped in the root package pins the same typed
// error with the machine held deterministically.)
func TestDaemonOverloadDeadlines(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	// Median-of-medians on sorted data is the paper's slowest
	// configuration (~15ms per 256k-key query on a reference host), so
	// eight queued queries hold the daemon's only machine for a long,
	// scheduler-independent window.
	d := newDaemon(t, parsel.Options{Algorithm: parsel.MedianOfMedians},
		parsel.PoolOptions{MaxMachines: 1},
		serve.Options{QueueDepth: 64, DefaultTimeout: 30 * time.Second})
	slow := workload.Generate(workload.Sorted, 262144, 8, 3)
	ctx := context.Background()

	// Eight slow queries, no client deadline: they must all eventually
	// succeed, and while they hold the machine + admission slots the
	// daemon is saturated.
	const slowN = 8
	var slowWG sync.WaitGroup
	slowErrs := make([]error, slowN)
	for i := 0; i < slowN; i++ {
		slowWG.Add(1)
		go func(i int) {
			defer slowWG.Done()
			_, slowErrs[i] = d.client.Over(slow).Median(ctx)
		}(i)
	}
	waitStats(t, d, "slow queries to be admitted", func(st parselclient.Stats) bool {
		return st.Server.Inflight >= 6
	})

	// The storm: 48 concurrent HTTP clients with 1ms admission
	// deadlines against the one machine, which the slow queries keep
	// busy for >= 5 * 15ms after the admission check above. Every
	// request must resolve to a structured outcome. Small shards keep
	// the storm's cost in admission, not serialization.
	tc := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()),
		parselclient.WithLimits(parselclient.ClientLimits{QueryTimeout: time.Millisecond}))
	small := workload.Generate(workload.Random, 8192, 4, 11)
	const stormClients = 48
	var ok, timedOut, queueFull atomic.Int64
	var sampleMu sync.Mutex
	var sampleTimeout error
	var stormWG sync.WaitGroup
	for c := 0; c < stormClients; c++ {
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			for i := 0; i < 3; i++ {
				_, err := tc.Over(small).Median(ctx)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, parsel.ErrPoolTimeout):
					timedOut.Add(1)
					sampleMu.Lock()
					sampleTimeout = err
					sampleMu.Unlock()
				case errors.Is(err, parselclient.ErrQueueFull):
					queueFull.Add(1)
				default:
					t.Errorf("storm client: unstructured outcome %v", err)
					return
				}
			}
		}()
	}
	stormWG.Wait()
	slowWG.Wait()
	for i, err := range slowErrs {
		if err != nil {
			t.Errorf("slow query %d: %v", i, err)
		}
	}
	if timedOut.Load() == 0 {
		t.Error("storm produced no pool_timeout responses")
	} else {
		// The typed shape of a timeout, sampled from the storm.
		var apiErr *parselclient.APIError
		if !errors.As(sampleTimeout, &apiErr) {
			t.Errorf("timeout outcome is %T, want *APIError", sampleTimeout)
		} else if apiErr.Status != 429 || apiErr.Code != parselclient.CodePoolTimeout {
			t.Errorf("timeout outcome %d %s, want 429 %s",
				apiErr.Status, apiErr.Code, parselclient.CodePoolTimeout)
		}
	}
	if total := ok.Load() + timedOut.Load() + queueFull.Load(); total != stormClients*3 {
		t.Errorf("storm outcomes %d, want %d", total, stormClients*3)
	}

	// Counters must account for every request exactly once.
	st := d.server.Stats()
	sum := st.Server.OK + st.Server.Timeouts + st.Server.Rejected +
		st.Server.ClientErrors + st.Server.ServerErrors
	if st.Server.Requests != sum {
		t.Errorf("request accounting leak: %d requests, outcomes sum to %d: %+v",
			st.Server.Requests, sum, st.Server)
	}
	if st.Server.Timeouts != timedOut.Load() || st.Server.Rejected != queueFull.Load() {
		t.Errorf("server counted %d/%d timeouts/rejections, clients saw %d/%d",
			st.Server.Timeouts, st.Server.Rejected, timedOut.Load(), queueFull.Load())
	}
	if st.Pool.Timeouts == 0 {
		t.Errorf("pool never recorded an admission timeout: %+v", st.Pool)
	}
	if st.Pool.Creates != 1 {
		t.Errorf("single-machine pool built %d machines", st.Pool.Creates)
	}

	// Drain, shut down, and audit for leaks: no resident Selectors, and
	// the goroutine count returns to its pre-daemon level.
	d.server.Drain()
	if _, err := d.client.Over([][]int64{{1}, {2}}).Median(ctx); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("query during drain: %v, want ErrPoolClosed mapping", err)
	}
	d.ts.Close()
	d.pool.Close()
	if st := d.pool.Stats(); st.Resident != 0 || st.Idle != 0 {
		t.Errorf("Selector leak after drain: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseGoroutines+3 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak after drain: %d now, %d before the daemon",
		runtime.NumGoroutine(), baseGoroutines)
}

// stalledRequest opens a raw connection and sends a query's headers
// plus a partial body, then stops: the handler admits the request (the
// admission slot is taken before the body is read) and blocks reading
// the rest, holding the slot until the connection is closed — a fully
// deterministic way to occupy admission capacity.
func stalledRequest(t *testing.T, d *daemon) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", d.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	partial := `{"shards": [[1, 2], [3]]` // valid prefix, never completed
	_, err = fmt.Fprintf(conn, "POST /v1/median HTTP/1.1\r\nHost: parseld\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(partial)+100, partial)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestDaemonQueueFull pins the constant-time rejection line: once
// MaxMachines + QueueDepth requests are admitted, the next query is
// answered 429 queue_full immediately (no queueing), mapped to
// parselclient.ErrQueueFull. Admission capacity is held by stalled
// uploads, so the window is deterministic.
func TestDaemonQueueFull(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{QueueDepth: 1, DefaultTimeout: 10 * time.Second})
	defer d.close()
	ctx := context.Background()
	small := [][]int64{{1, 2}, {3}}

	// Fill both admission slots (MaxMachines 1 + QueueDepth 1) with
	// stalled uploads.
	c1 := stalledRequest(t, d)
	defer c1.Close()
	c2 := stalledRequest(t, d)
	defer c2.Close()
	waitStats(t, d, "admission slots to fill", func(st parselclient.Stats) bool {
		return st.Server.Inflight >= 2
	})

	_, err := d.client.Over(small).Median(ctx)
	if !errors.Is(err, parselclient.ErrQueueFull) {
		t.Errorf("overfull daemon: %v, want ErrQueueFull", err)
	}
	var apiErr *parselclient.APIError
	if errors.As(err, &apiErr) && apiErr.Status != 429 {
		t.Errorf("queue_full status = %d, want 429", apiErr.Status)
	}

	// Release one slot: its handler fails the half-read body with a
	// structured 400, and the freed capacity serves real queries again.
	c1.Close()
	readStatus(t, c1) // connection is closed; just ensure no hang
	waitStats(t, d, "slot release", func(st parselclient.Stats) bool {
		return st.Server.Inflight <= 1
	})
	res, err := d.client.Over(small).Median(ctx)
	if err != nil || res.Value != 2 {
		t.Errorf("median after queue drain: %v %v", res.Value, err)
	}

	st := d.server.Stats()
	if st.Server.Rejected == 0 {
		t.Errorf("queue-full accounting: %+v", st.Server)
	}
}

// readStatus drains whatever response the stalled connection got, if
// any; closed-connection errors are fine.
func readStatus(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err == nil && !strings.HasPrefix(line, "HTTP/1.1") {
		t.Errorf("stalled connection got non-HTTP response %q", line)
	}
}
