package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsel"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// spoolDaemon is a daemon with a snapshot directory on a loopback
// listener, whose internals the test reaches: the store's fault seam,
// the persist lock and the ledger.
type spoolDaemon struct {
	s   *Server
	ts  *httptest.Server
	dir string
	// spoolWrites counts the writes into upload spools.
	spoolWrites atomic.Int64
	// fail, when set, fails the store step it names.
	fail atomic.Pointer[snapshot.Step]
}

func newSpoolDaemon(t *testing.T, so Options) *spoolDaemon {
	t.Helper()
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	so.Pool = pool
	if so.SnapshotDir == "" {
		so.SnapshotDir = t.TempDir()
	}
	s, err := New(so)
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	d := &spoolDaemon{s: s, ts: httptest.NewServer(s), dir: so.SnapshotDir}
	s.snap.SetFault(func(step snapshot.Step) error {
		if step == snapshot.StepSpoolWrite {
			d.spoolWrites.Add(1)
		}
		if f := d.fail.Load(); f != nil && *f == step {
			return errors.New("injected " + string(step) + " failure")
		}
		return nil
	})
	t.Cleanup(func() {
		s.FlushSnapshots()
		d.ts.Close()
		s.Close()
		pool.Close()
	})
	return d
}

// put sends body as a frame upload of id and returns the status.
func (d *spoolDaemon) put(t *testing.T, id string, body []byte) int {
	t.Helper()
	code, err := d.putFrame(id, body)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// putFrame is put for a goroutine other than the test's.
func (d *spoolDaemon) putFrame(id string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPut, d.ts.URL+"/v1/datasets/"+id, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", parselclient.ContentTypeFrame)
	res, err := d.ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	res.Body.Close()
	return res.StatusCode, nil
}

func (d *spoolDaemon) delete(t *testing.T, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, d.ts.URL+"/v1/datasets/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("delete %s: %d", id, res.StatusCode)
	}
}

// files lists the snapshot directory's names matching pattern.
func (d *spoolDaemon) files(t *testing.T, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(d.dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		m[i] = filepath.Base(m[i])
	}
	sort.Strings(m)
	return m
}

// holdPersists blocks every persist until the returned release runs,
// so a test can act on an upload before its persist commits it.
func (d *spoolDaemon) holdPersists() (release func()) {
	d.s.snapIOMu.Lock()
	return d.s.snapIOMu.Unlock
}

// settled flushes the snapshotter and checks the directory holds a
// .snap file for exactly the live ids and no temp file. Then it
// deletes the live ids and checks the directory is empty of both and
// the ledger is back to zero.
func (d *spoolDaemon) settled(t *testing.T, live ...string) {
	t.Helper()
	d.s.FlushSnapshots()
	want := make([]string, 0, len(live))
	for _, id := range live {
		want = append(want, id+".snap")
	}
	sort.Strings(want)
	if got := d.files(t, "*.snap"); !slices.Equal(got, want) {
		t.Errorf("snapshot files %v, want %v", got, want)
	}
	if tmp := d.files(t, ".tmp-*"); len(tmp) != 0 {
		t.Errorf("temp files left: %v", tmp)
	}
	for _, id := range live {
		d.delete(t, id)
	}
	d.s.FlushSnapshots()
	if left := append(d.files(t, "*.snap"), d.files(t, ".tmp-*")...); len(left) != 0 {
		t.Errorf("files left after deleting everything: %v", left)
	}
	d.s.dsMu.Lock()
	total, rows := d.s.total, len(d.s.datasets)
	d.s.dsMu.Unlock()
	if total != (usage{}) || rows != 0 {
		t.Errorf("ledger after deleting everything: %+v over %d datasets, want zero", total, rows)
	}
}

// encoded is the snapshot the daemon itself writes for shards.
func (d *spoolDaemon) encoded(shards [][]int64) []byte {
	return snapshot.Encode(snapshot.Header{Options: d.s.optionsFP}, shards)
}

func (d *spoolDaemon) snapOf(t *testing.T, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(d.dir, id+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotSpoolByteIdentity pins that a frame upload's spooled
// snapshot is the file an encode of the same shards writes: for every
// key kind the same shards go up once as JSON (encoded at persist) and
// once as a frame (spooled while decoding, and still holding its spool
// when its persist runs), and the two .snap files are byte-identical.
// After a drain and a restart both restore warm and answer Select and
// Median with the same values and simulated seconds.
func TestSnapshotSpoolByteIdentity(t *testing.T) {
	ints := [][]int64{{9, -3, 1 << 62}, {}, {7, 7, 0, -1 << 63}}
	floats := [][]float64{{2.5, math.Copysign(0, -1), 1e300}, {}, {-7.25, 3, 3, 0.5}}
	strs := [][]string{{"pear", ""}, {"apple", "fig", "kiwi"}, {"banana"}}
	t.Run("int64", func(t *testing.T) { spoolIdentity(t, ints) })
	t.Run("float64", func(t *testing.T) { spoolIdentity(t, floats) })
	t.Run("string", func(t *testing.T) { spoolIdentity(t, strs) })
}

func spoolIdentity[K parselclient.Key](t *testing.T, shards [][]K) {
	ctx := context.Background()
	d := newSpoolDaemon(t, Options{})
	client := func(binary bool) parselclient.KindClient[K] {
		return parselclient.Keyed[K](parselclient.New(d.ts.URL,
			parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithBinary(binary)))
	}
	release := d.holdPersists()
	if _, err := client(false).Dataset("json").Upload(ctx, shards); err != nil {
		t.Fatal(err)
	}
	if _, err := client(true).Dataset("frame").Upload(ctx, shards); err != nil {
		t.Fatal(err)
	}
	d.s.dsMu.Lock()
	jsonSpool, frameSpool := d.s.datasets["json"].spool, d.s.datasets["frame"].spool
	d.s.dsMu.Unlock()
	if jsonSpool != nil || frameSpool == nil {
		t.Errorf("spools before the persist: json %v, frame %v; want only the frame's", jsonSpool, frameSpool)
	}
	release()
	d.s.FlushSnapshots()
	if j, f := d.snapOf(t, "json"), d.snapOf(t, "frame"); !bytes.Equal(j, f) {
		t.Fatalf("spooled snapshot differs from the encoded one:\n json  %x\n frame %x", j, f)
	}
	d.s.Drain()

	d2 := newSpoolDaemon(t, Options{SnapshotDir: d.dir})
	if st := d2.s.Stats(); st.Snapshots.Restored != 2 {
		t.Fatalf("restart restored %d datasets, want 2: %+v", st.Snapshots.Restored, st.Snapshots)
	}
	kc := parselclient.Keyed[K](parselclient.New(d2.ts.URL, parselclient.WithHTTPClient(d2.ts.Client())))
	type answer struct {
		value K
		sim   uint64
	}
	answers := func(id string) []answer {
		t.Helper()
		ds := kc.Dataset(id)
		if info, err := ds.Info(ctx); err != nil || !info.Restored {
			t.Fatalf("%s after restart: %+v %v, want restored", id, info, err)
		}
		med, err := ds.Median(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := ds.Select(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		return []answer{
			{med.Value, math.Float64bits(med.SimSeconds)},
			{sel.Value, math.Float64bits(sel.SimSeconds)},
		}
	}
	if j, f := answers("json"), answers("frame"); !slices.Equal(j, f) {
		t.Errorf("restored answers differ: json %v, frame %v", j, f)
	}
}

// TestSnapshotSpoolNoLeftovers pins that a spool which loses never
// reaches disk: after each way an upload can fail, be refused, or be
// superseded before its persist, the directory holds no temp file and
// no stray snapshot, and the ledger returns to zero.
func TestSnapshotSpoolNoLeftovers(t *testing.T) {
	a := [][]int64{{5, 3, 9}, {1, 7}}
	b := [][]int64{{2, 4}, {6, 8, 10, 12}}
	valid := snapshot.Encode(snapshot.Header{}, a)

	t.Run("data CRC flip", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{})
		bad := slices.Clone(valid)
		bad[len(bad)-10] ^= 0x40 // inside the data section
		if code := d.put(t, "x", bad); code != http.StatusBadRequest {
			t.Fatalf("corrupt upload: %d", code)
		}
		if d.spoolWrites.Load() == 0 {
			t.Error("the corrupt upload was never spooled")
		}
		d.settled(t)
	})
	t.Run("truncated body", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{})
		if code := d.put(t, "x", valid[:len(valid)-5]); code != http.StatusBadRequest {
			t.Fatalf("truncated upload: %d", code)
		}
		if d.spoolWrites.Load() == 0 {
			t.Error("the truncated upload was never spooled")
		}
		d.settled(t)
	})
	t.Run("over budget", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{MaxResidentBytes: 16})
		if code := d.put(t, "x", valid); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-budget upload: %d", code)
		}
		if n := d.spoolWrites.Load(); n != 0 {
			t.Errorf("a refused upload was spooled (%d writes)", n)
		}
		d.settled(t)
	})
	t.Run("replaced before persist", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{})
		release := d.holdPersists()
		if code := d.put(t, "x", valid); code != http.StatusOK {
			t.Fatalf("upload: %d", code)
		}
		if tmp := d.files(t, ".tmp-*"); len(tmp) != 1 {
			t.Errorf("spools after the first upload: %v, want one", tmp)
		}
		if code := d.put(t, "x", snapshot.Encode(snapshot.Header{}, b)); code != http.StatusOK {
			t.Fatalf("replacement: %d", code)
		}
		if tmp := d.files(t, ".tmp-*"); len(tmp) != 1 {
			t.Errorf("spools after the replacement: %v, want the replacement's only", tmp)
		}
		release()
		d.s.FlushSnapshots()
		if got := d.snapOf(t, "x"); !bytes.Equal(got, d.encoded(b)) {
			t.Error("the persisted snapshot is not the replacement's encoding")
		}
		d.settled(t, "x")
	})
	t.Run("deleted before persist", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{})
		release := d.holdPersists()
		if code := d.put(t, "x", valid); code != http.StatusOK {
			t.Fatalf("upload: %d", code)
		}
		d.delete(t, "x")
		if tmp := d.files(t, ".tmp-*"); len(tmp) != 0 {
			t.Errorf("spools after the delete: %v", tmp)
		}
		release()
		d.settled(t)
	})
	t.Run("evicted before persist", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{DatasetTTL: time.Minute})
		var late atomic.Bool
		d.s.SetNowForTest(func() time.Time {
			if late.Load() {
				return time.Now().Add(time.Hour)
			}
			return time.Now()
		})
		release := d.holdPersists()
		if code := d.put(t, "x", valid); code != http.StatusOK {
			t.Fatalf("upload: %d", code)
		}
		late.Store(true)
		if st := d.s.Stats(); st.Datasets.Expired != 1 {
			t.Fatalf("eviction did not run: %+v", st.Datasets)
		}
		release()
		d.settled(t)
	})
	t.Run("racing same-id uploads", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{})
		release := d.holdPersists()
		bodies := [][]byte{valid, snapshot.Encode(snapshot.Header{}, b)}
		var wg sync.WaitGroup
		codes := make([]int, len(bodies))
		errs := make([]error, len(bodies))
		for i, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[i], errs[i] = d.putFrame("x", body)
			}()
		}
		wg.Wait()
		if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
			t.Fatalf("racing uploads: %v %v", codes, errs)
		}
		if tmp := d.files(t, ".tmp-*"); len(tmp) != 1 {
			t.Errorf("spools after the race: %v, want the winner's only", tmp)
		}
		release()
		d.s.FlushSnapshots()
		got := d.snapOf(t, "x")
		if !bytes.Equal(got, d.encoded(a)) && !bytes.Equal(got, d.encoded(b)) {
			t.Error("the persisted snapshot is neither upload's encoding")
		}
		d.settled(t, "x")
	})
}

// TestSnapshotSpoolFaults drives the store's failure seam through the
// daemon. A failing spool write never fails the upload: it answers
// 200 and its persist encodes the dataset instead. A failing directory
// sync after the rename fails the persist — a frame upload's spool
// commit and a JSON upload's encode alike — so it is counted as a
// persist error and degrades health, and the next clean persist
// clears it.
func TestSnapshotSpoolFaults(t *testing.T) {
	ctx := context.Background()
	shards := [][]int64{{5, 3, 9}, {1, 7}}
	body := snapshot.Encode(snapshot.Header{}, shards)

	t.Run("spool write", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{})
		step := snapshot.StepSpoolWrite
		d.fail.Store(&step)
		if code := d.put(t, "x", body); code != http.StatusOK {
			t.Fatalf("upload with a failing spool: %d, want 200", code)
		}
		d.s.FlushSnapshots()
		if d.spoolWrites.Load() == 0 {
			t.Error("the upload was never spooled")
		}
		if st := d.s.Stats().Snapshots; st.Persists != 1 || st.PersistErrors != 0 || st.Degraded {
			t.Errorf("snapshot stats after the fallback: %+v", st)
		}
		if got := d.snapOf(t, "x"); !bytes.Equal(got, d.encoded(shards)) {
			t.Error("the fallback persist did not write the dataset's encoding")
		}
		d.settled(t, "x")
	})

	t.Run("dir sync", func(t *testing.T) {
		d := newSpoolDaemon(t, Options{})
		step := snapshot.StepDirSync
		d.fail.Store(&step)
		client := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()))
		if _, err := client.Dataset("json").Upload(ctx, shards); err != nil {
			t.Fatal(err)
		}
		d.s.FlushSnapshots()
		if st := d.s.Stats().Snapshots; st.Persists != 0 || st.PersistErrors != 1 || !st.Degraded {
			t.Errorf("after a JSON upload's failing dir sync: %+v, want one persist error", st)
		}
		if code := d.put(t, "frame", body); code != http.StatusOK {
			t.Fatalf("frame upload: %d", code)
		}
		d.s.FlushSnapshots()
		if st := d.s.Stats().Snapshots; st.Persists != 0 || st.PersistErrors != 2 || !st.Degraded {
			t.Errorf("after a spool commit's failing dir sync: %+v, want two persist errors", st)
		}

		d.fail.Store(nil)
		if code := d.put(t, "frame", body); code != http.StatusOK {
			t.Fatalf("frame re-upload: %d", code)
		}
		d.s.FlushSnapshots()
		if st := d.s.Stats().Snapshots; st.Persists != 1 || st.Degraded {
			t.Errorf("after a clean persist: %+v, want one persist and health restored", st)
		}
		if _, err := client.Dataset("json").Upload(ctx, shards); err != nil {
			t.Fatal(err)
		}
		d.settled(t, "frame", "json")
	})
}
