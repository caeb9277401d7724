package parsel_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"parsel"
	"parsel/internal/workload"
)

// simOnly strips the host-dependent wall clock so reports compare
// bit-for-bit on the simulated metrics.
func simOnly(r parsel.Report) parsel.Report {
	r.WallSeconds = 0
	return r
}

// TestDatasetViewRestoreBitIdentical pins the snapshot contract at
// the library layer: View exports the resident per-proc shards
// without re-sharding, RestoreDataset adopts them zero-copy into
// another pool, and every query against the restored dataset — values
// and every simulated metric — is bit-identical to the original.
func TestDatasetViewRestoreBitIdentical(t *testing.T) {
	opts := parsel.Options{}
	pool, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	shards := workload.Generate(workload.ZipfLike, 6000, 5, 99)
	ds, err := pool.NewDataset(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	view, err := ds.View()
	if err != nil {
		t.Fatal(err)
	}
	if len(view) != len(shards) {
		t.Fatalf("view has %d shards, uploaded %d", len(view), len(shards))
	}
	for i := range shards {
		if !slices.Equal(view[i], shards[i]) {
			t.Fatalf("view shard %d diverges from the upload", i)
		}
	}

	// Restore into a second pool, as a restarted daemon would.
	pool2, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	restored, err := pool2.RestoreDataset(view)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Procs() != ds.Procs() || restored.N() != ds.N() || restored.Bytes() != ds.Bytes() {
		t.Errorf("restored shape %d/%d/%d, original %d/%d/%d",
			restored.Procs(), restored.N(), restored.Bytes(), ds.Procs(), ds.N(), ds.Bytes())
	}

	n := ds.N()
	for _, rank := range []int64{1, n / 3, (n + 1) / 2, n} {
		want, err := ds.Select(context.Background(), rank)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Select(context.Background(), rank)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || simOnly(got.Report) != simOnly(want.Report) {
			t.Errorf("rank %d: restored %+v, original %+v", rank, got, want)
		}
	}
	wantQ, wantRep, err := ds.Quantiles(context.Background(), []float64{0.01, 0.5, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	gotQ, gotRep, err := restored.Quantiles(context.Background(), []float64{0.01, 0.5, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotQ, wantQ) || simOnly(gotRep) != simOnly(wantRep) {
		t.Errorf("quantiles: restored %v %+v, original %v %+v", gotQ, gotRep, wantQ, wantRep)
	}
	wantS, wantSRep, err := ds.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotS, gotSRep, err := restored.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotS != wantS || simOnly(gotSRep) != simOnly(wantSRep) {
		t.Errorf("summary: restored %+v, original %+v", gotS, wantS)
	}
}

// TestDatasetViewRestoreLifecycle pins the error surface of the new
// export/import methods.
func TestDatasetViewRestoreLifecycle(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := pool.NewDataset([][]int64{{2, 1}, {3}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := pool.RestoreDataset(nil); !errors.Is(err, parsel.ErrNoShards) {
		t.Errorf("RestoreDataset(nil) = %v, want ErrNoShards", err)
	}

	// An empty-shard restore is legal (empty populations are resident
	// too) and queries report ErrNoData like every entry point.
	empty, err := pool.RestoreDataset([][]int64{{}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Median(context.Background()); !errors.Is(err, parsel.ErrNoData) {
		t.Errorf("empty restored median = %v, want ErrNoData", err)
	}

	ds.Close()
	if _, err := ds.View(); !errors.Is(err, parsel.ErrDatasetClosed) {
		t.Errorf("View after Close = %v, want ErrDatasetClosed", err)
	}

	pool.Close()
	if _, err := pool.RestoreDataset([][]int64{{1}}); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("RestoreDataset on closed pool = %v, want ErrPoolClosed", err)
	}
}
