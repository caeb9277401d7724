package serve

import (
	"bytes"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parsel"
	"parsel/internal/snapshot"
)

// TestOptionsFingerprint pins the snapshot options fingerprint of the
// default configuration, and checks that zero fields and their explicit
// defaults give the same string while every setting moves it: each leaf
// field of parsel.Options, found by reflection, set to 2 (numbers and
// durations) or true (bools) must give another string, so a field added
// later that snapshots would not notice fails here.
func TestOptionsFingerprint(t *testing.T) {
	const want = "algorithm=fastrand balancer=modomlb seed=1 topology=crossbar per_hop_s=5e-06 max_iterations=200 faithful=false"
	if got := optionsFingerprint(parsel.Options{}); got != want {
		t.Fatalf("default fingerprint %q, want %q", got, want)
	}
	explicit := parsel.Options{
		Algorithm: parsel.FastRandomized,
		Balancer:  parsel.ModifiedOMLB,
		Machine:   parsel.Machine{Seed: 1, PerHop: 5 * time.Microsecond},
	}
	if got := optionsFingerprint(explicit); got != want {
		t.Errorf("explicit defaults fingerprint %q, want %q", got, want)
	}
	var o parsel.Options
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := range v.NumField() {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name+".")
				continue
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(2)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(2)
			default:
				t.Errorf("%s: no test value for kind %v", name, f.Kind())
				continue
			}
			if got := optionsFingerprint(o); got == want {
				t.Errorf("%s: fingerprint of %+v equals the default's", name, o)
			}
			f.SetZero()
		}
	}
	walk(reflect.ValueOf(&o).Elem(), "")
}

// lockedBuf is a log sink the snapshotter goroutine may write too.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) count(s string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Count(l.b.String(), s)
}

// TestSnapshotOptionsWarnOnce checks that a snapshot written under other
// pool options warns on the first restore only: the restore re-persists
// it under the restoring daemon's fingerprint.
func TestSnapshotOptionsWarnOnce(t *testing.T) {
	const warning = "persisted under different pool options"
	shards := [][]int64{{9, 1, 5}, {3, 7, 2}}
	old := newSpoolDaemon(t, Options{})
	old.s.optionsFP = "written by an older daemon"
	if code := old.put(t, "legacy", snapshot.Encode(snapshot.Header{}, shards)); code != http.StatusOK {
		t.Fatalf("upload: status %d", code)
	}
	old.s.Drain()

	for restart, want := range []int{1, 0} {
		var logs lockedBuf
		d := newSpoolDaemon(t, Options{SnapshotDir: old.dir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
		d.s.FlushSnapshots()
		if got := logs.count(warning); got != want {
			t.Errorf("restart %d: %d option warnings, want %d", restart, got, want)
		}
		h, _, _, err := snapshot.LoadAs[int64](d.s.snap, "legacy")
		if err != nil {
			t.Fatal(err)
		}
		if h.Options != d.s.optionsFP {
			t.Errorf("restart %d: snapshot header options %q, want %q", restart, h.Options, d.s.optionsFP)
		}
		d.s.Drain()
	}
}
