package serve_test

import (
	"bytes"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// processUsage is the CPU time the process has used so far, user and
// system, on all its threads — the background snapshotter's included —
// and the minor page faults it has taken.
func processUsage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Minflt
}

// BenchmarkFrameUploadPersist measures the daemon's write path for one
// binary upload: a 2^18-key int64 frame PUT straight into the handler
// (no client, no socket), then FlushSnapshots, so each iteration pays
// the decode, the resident restore and the fsync'd persist of one new
// generation. cpu-ns/upload is the process CPU per iteration and
// minflt/upload its minor page faults (first touches of fresh memory,
// such as each upload's new backing array); ns/op is wall time and
// includes the fsyncs' waits.
func BenchmarkFrameUploadPersist(b *testing.B) {
	const procs, n = 8, 1 << 18
	rng := rand.New(rand.NewPCG(24, 1))
	shards := make([][]int64, procs)
	for i := range shards {
		shards[i] = make([]int64, n/procs)
		for j := range shards[i] {
			shards[i][j] = rng.Int64()
		}
	}
	body := snapshot.Encode(snapshot.Header{}, shards)

	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	srv, err := serve.New(serve.Options{Pool: pool, SnapshotDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	defer srv.Drain()

	upload := func() {
		req := httptest.NewRequest(http.MethodPut, "/v1/datasets/bench", bytes.NewReader(body))
		req.Header.Set("Content-Type", parselclient.ContentTypeFrame)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("upload: %d %s", rec.Code, rec.Body)
		}
		srv.FlushSnapshots()
	}
	upload() // the first persist also creates the manifest
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	cpu0, flt0 := processUsage()
	for range b.N {
		upload()
	}
	cpu, flt := processUsage()
	b.ReportMetric(float64(cpu-cpu0)/float64(b.N), "cpu-ns/upload")
	b.ReportMetric(float64(flt-flt0)/float64(b.N), "minflt/upload")
}
