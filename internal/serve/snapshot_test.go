package serve_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/workload"
	"parsel/parselclient"
)

// snapFiles lists the .snap files in a snapshot directory.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range matches {
		matches[i] = filepath.Base(matches[i])
	}
	return matches
}

// TestSnapshotPersistLifecycle pins the persistence side of the
// durability contract: an upload lands on disk after a flush, the
// stats gauges track it, and a delete or TTL eviction removes the
// snapshot so a restart cannot resurrect dead data.
func TestSnapshotPersistLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2},
		serve.Options{SnapshotDir: dir, DatasetTTL: time.Minute})
	defer d.close()

	base := time.Now()
	var offset atomic.Int64
	d.server.SetNowForTest(func() time.Time {
		return base.Add(time.Duration(offset.Load()))
	})

	if _, err := d.client.Dataset("keep").Upload(ctx, [][]int64{{5, 1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Dataset("drop").Upload(ctx, [][]int64{{9}, {8}}); err != nil {
		t.Fatal(err)
	}
	d.server.FlushSnapshots()

	files := snapFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("snapshot files after flush: %v, want keep.snap and drop.snap", files)
	}
	st := d.server.Stats()
	if !st.Snapshots.Enabled || st.Snapshots.Persists < 2 || st.Snapshots.Dirty != 0 {
		t.Errorf("snapshot stats after flush: %+v", st.Snapshots)
	}
	if st.Snapshots.SnapshotBytes <= 0 || st.Snapshots.LastPersistUnixMS == 0 {
		t.Errorf("snapshot gauges empty after flush: %+v", st.Snapshots)
	}

	// DELETE removes the id's snapshot.
	if _, err := d.client.Dataset("drop").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	d.server.FlushSnapshots()
	if files := snapFiles(t, dir); len(files) != 1 || files[0] != "keep.snap" {
		t.Errorf("snapshot files after delete: %v, want only keep.snap", files)
	}

	// TTL eviction removes it too: lapse the clock, let a registry
	// touch sweep, and flush.
	offset.Store(int64(2 * time.Minute))
	if st := d.server.Stats(); st.Datasets.Expired != 1 {
		t.Fatalf("eviction did not run: %+v", st.Datasets)
	}
	d.server.FlushSnapshots()
	if files := snapFiles(t, dir); len(files) != 0 {
		t.Errorf("snapshot files after eviction: %v, want none", files)
	}

	// A replacement upload persists the new population under the same
	// file.
	if _, err := d.client.Dataset("keep").Upload(ctx, [][]int64{{7}, {7, 7}}); err != nil {
		t.Fatal(err)
	}
	d.server.FlushSnapshots()
	if files := snapFiles(t, dir); len(files) != 1 {
		t.Errorf("snapshot files after re-upload: %v", files)
	}
}

// TestSnapshotTTLRefreshPersisted pins that query-driven TTL
// refreshes reach the snapshot store: once the in-memory deadline has
// advanced at least half a TTL past the persisted one, the dataset is
// re-persisted (metadata-only), so a hard kill costs an
// actively-queried dataset at most half its TTL of freshness — it is
// not deleted at recovery as expired. Smaller advances are throttled
// (no fsync per query).
func TestSnapshotTTLRefreshPersisted(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const ttl = 10 * time.Minute
	d1 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir, DatasetTTL: ttl})

	base := time.Now()
	var offset atomic.Int64
	d1.server.SetNowForTest(func() time.Time {
		return base.Add(time.Duration(offset.Load()))
	})

	rd := d1.client.Dataset("hot")
	if _, err := rd.Upload(ctx, [][]int64{{4, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}
	d1.server.FlushSnapshots()
	persists := d1.server.Stats().Snapshots.Persists

	// +6m: the refreshed deadline is 6m past the persisted one — over
	// the half-TTL threshold, so the refresh lands on disk.
	offset.Store(int64(6 * time.Minute))
	if _, err := rd.Select(ctx, 1); err != nil {
		t.Fatal(err)
	}
	d1.server.FlushSnapshots()
	if got := d1.server.Stats().Snapshots.Persists; got != persists+1 {
		t.Fatalf("TTL refresh persists: %d, want %d", got, persists+1)
	}
	// +7m: only 1m past the persisted deadline — throttled.
	offset.Store(int64(7 * time.Minute))
	if _, err := rd.Select(ctx, 1); err != nil {
		t.Fatal(err)
	}
	d1.server.FlushSnapshots()
	if got := d1.server.Stats().Snapshots.Persists; got != persists+1 {
		t.Errorf("sub-threshold refresh persisted: %d, want %d", got, persists+1)
	}
	// Hard kill (no drain): the restarted daemon restores the dataset
	// with the refreshed deadline — ~16m out, not the original 10m.
	d1.close()
	d2 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir, DatasetTTL: ttl})
	defer d2.close()
	info, err := d2.client.Dataset("hot").Info(ctx)
	if err != nil {
		t.Fatalf("restored hot dataset: %v", err)
	}
	if info.ExpiresInMS < (11 * time.Minute).Milliseconds() {
		t.Errorf("restored deadline %dms out, want the refreshed ~16m, not the upload's 10m",
			info.ExpiresInMS)
	}
}

// TestSnapshotRestoreAdmission pins the typed refusal when the
// budget/count caps cannot admit a snapshot: the direct restore
// surface returns ErrSnapshotBudget, and startup recovery skips the
// entry with a logged warning instead of failing the daemon.
func TestSnapshotRestoreAdmission(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// Persist a ~100-key dataset with a roomy daemon.
	d1 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir})
	big := workload.Generate(workload.Random, 100, 2, 3)
	if _, err := d1.client.Dataset("big").Upload(ctx, big); err != nil {
		t.Fatal(err)
	}
	d1.server.Drain()
	d1.close()

	// Direct restore against a tiny budget: the typed error.
	small := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{MaxResidentBytes: 80})
	defer small.close()
	err := small.server.RestoreDataset("direct", big, time.Now().Add(time.Hour), 1)
	if !errors.Is(err, serve.ErrSnapshotBudget) {
		t.Fatalf("restore over budget = %v, want ErrSnapshotBudget", err)
	}
	// The count cap refuses with the same typed error.
	capped := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{MaxDatasets: 1})
	defer capped.close()
	if err := capped.server.RestoreDataset("one", [][]int64{{1}}, time.Now().Add(time.Hour), 1); err != nil {
		t.Fatal(err)
	}
	err = capped.server.RestoreDataset("two", [][]int64{{2}}, time.Now().Add(time.Hour), 2)
	if !errors.Is(err, serve.ErrSnapshotBudget) {
		t.Fatalf("restore over count cap = %v, want ErrSnapshotBudget", err)
	}
	if err := capped.server.RestoreDataset("one", [][]int64{{3}}, time.Now().Add(time.Hour), 3); err == nil {
		t.Error("restore onto a resident id succeeded")
	}

	// Startup recovery with the same tiny budget: skipped with a
	// warning, never a crash; the snapshot file survives for a restart
	// with more room.
	var logs syncBuf
	d2 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir, MaxResidentBytes: 80, Logger: jsonLogger(t, &logs)})
	defer d2.close()
	st := d2.server.Stats()
	if st.Snapshots.Restored != 0 || st.Snapshots.RestoreSkipped != 1 {
		t.Errorf("recovery stats under tiny budget: %+v", st.Snapshots)
	}
	if !strings.Contains(logs.String(), "not restored") {
		t.Errorf("no skip warning logged:\n%s", logs.String())
	}
	if files := snapFiles(t, dir); len(files) != 1 {
		t.Errorf("refused snapshot was deleted: %v", files)
	}

	// A third daemon with the default budget restores it after all.
	d3 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir})
	defer d3.close()
	if st := d3.server.Stats(); st.Snapshots.Restored != 1 {
		t.Errorf("recovery with room: %+v", st.Snapshots)
	}

	// Recovery charges a tenant exactly as an upload would: persist two
	// of acme's datasets, restart with acme's quota at one, and exactly
	// one comes back, charged to both acme's row and the global row.
	tdir := t.TempDir()
	acmeOpts := func(quota int) serve.Options {
		return serve.Options{SnapshotDir: tdir,
			Tenants: []serve.Tenant{{Name: "acme", Token: "tok-a", MaxDatasets: quota}}}
	}
	d4 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, acmeOpts(0))
	acme := parselclient.New(d4.ts.URL, parselclient.WithHTTPClient(d4.ts.Client()), parselclient.WithToken("tok-a"))
	for id, sh := range map[string][][]int64{"t-one": {{1, 2, 3}}, "t-two": {{4, 5}}} {
		if _, err := acme.Dataset(id).Upload(ctx, sh); err != nil {
			t.Fatal(err)
		}
	}
	d4.server.Drain()
	d4.close()
	d5 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, acmeOpts(1))
	defer d5.close()
	acme = parselclient.New(d5.ts.URL, parselclient.WithHTTPClient(d5.ts.Client()), parselclient.WithToken("tok-a"))
	st = d5.server.Stats()
	if st.Snapshots.Restored != 1 || st.Snapshots.RestoreSkipped != 1 {
		t.Fatalf("recovery under a one-dataset tenant quota: %+v", st.Snapshots)
	}
	var restored []parselclient.DatasetInfo
	for _, id := range []string{"t-one", "t-two"} {
		if info, err := acme.Dataset(id).Info(ctx); err == nil {
			restored = append(restored, info)
		}
	}
	if len(restored) != 1 || restored[0].Tenant != "acme" {
		t.Fatalf("restored datasets: %+v, want one of acme's", restored)
	}
	st = d5.server.Stats()
	if ta := st.Tenants["acme"]; ta.Datasets != 1 || ta.ResidentBytes != restored[0].Bytes {
		t.Errorf("acme row after recovery: %+v, want 1 dataset of %d bytes", ta, restored[0].Bytes)
	}
	if st.Datasets.Count != 1 || st.Datasets.ResidentBytes != restored[0].Bytes {
		t.Errorf("global row after recovery: %+v, want 1 dataset of %d bytes", st.Datasets, restored[0].Bytes)
	}
}

// TestSnapshotCrashSafety pins the startup half of crash safety: a
// partial write (temp file that never reached its rename) is
// invisible; a manifest entry whose file is missing is skipped with a
// logged warning, not a startup failure; a corrupt snapshot is
// quarantined with its typed error logged and the daemon serves on.
func TestSnapshotCrashSafety(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	d1 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir})
	for id, sh := range map[string][][]int64{
		"ok":      {{4, 2}, {6, 1}},
		"missing": {{1}, {2}},
		"corrupt": {{3, 3}, {3}},
	} {
		if _, err := d1.client.Dataset(id).Upload(ctx, sh); err != nil {
			t.Fatal(err)
		}
	}
	d1.server.Drain()
	d1.close()

	// Simulate the crash artifacts.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-partial.snap-42"), []byte("PSELSNAP-half"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "missing.snap")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "corrupt.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var buf syncBuf
	d2 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir, Logger: jsonLogger(t, &buf)})
	defer d2.close()

	st := d2.server.Stats()
	if st.Snapshots.Restored != 1 || st.Snapshots.RestoreSkipped != 1 || st.Snapshots.Quarantined != 1 {
		t.Errorf("recovery stats: %+v", st.Snapshots)
	}
	logs := buf.String()
	if !strings.Contains(logs, `"missing"`) {
		t.Errorf("missing-file skip not logged:\n%s", logs)
	}
	if !strings.Contains(logs, `"corrupt"`) {
		t.Errorf("quarantine not logged:\n%s", logs)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}

	// The surviving dataset serves (sorted population [1,2,4,6], the
	// median is rank 2); the others are typed not-founds.
	if res, err := d2.client.Dataset("ok").Median(ctx); err != nil || res.Value != 2 {
		t.Errorf("restored dataset median = %v %v, want 2", res.Value, err)
	}
	for _, id := range []string{"missing", "corrupt"} {
		if _, err := d2.client.Dataset(id).Median(ctx); !errors.Is(err, parselclient.ErrDatasetNotFound) {
			t.Errorf("query on unrecovered %q = %v, want ErrDatasetNotFound", id, err)
		}
	}
	// Info on the survivor reports its provenance.
	info, err := d2.client.Dataset("ok").Info(ctx)
	if err != nil || !info.Restored {
		t.Errorf("restored info: %+v %v, want Restored", info, err)
	}
	// ... which a re-upload clears.
	if _, err := d2.client.Dataset("ok").Upload(ctx, [][]int64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if info, err := d2.client.Dataset("ok").Info(ctx); err != nil || info.Restored {
		t.Errorf("info after re-upload: %+v %v, want not Restored", info, err)
	}
	// Quiesce the snapshotter before the test directory is torn down.
	d2.server.FlushSnapshots()
}

// TestSnapshotExpiredNotRestored pins that recovery honors the TTL:
// an entry whose deadline passed while the daemon was down is not
// restored and its file is cleaned up.
func TestSnapshotExpiredNotRestored(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d1 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir, DatasetTTL: 50 * time.Millisecond})
	if _, err := d1.client.Dataset("brief").Upload(ctx, [][]int64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	d1.server.Drain()
	d1.close()

	time.Sleep(80 * time.Millisecond) // outlive the TTL while "down"

	d2 := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1},
		serve.Options{SnapshotDir: dir, DatasetTTL: 50 * time.Millisecond})
	defer d2.close()
	st := d2.server.Stats()
	if st.Snapshots.Restored != 0 || st.Snapshots.RestoreSkipped != 1 {
		t.Errorf("expired entry recovery: %+v", st.Snapshots)
	}
	if files := snapFiles(t, dir); len(files) != 0 {
		t.Errorf("expired snapshot files survive: %v", files)
	}
}
