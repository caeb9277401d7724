package serve

import (
	"bytes"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"parsel"
	"parsel/internal/snapshot"
)

// TestOptionsFingerprint pins the snapshot options fingerprint of the
// default configuration, and checks that zero fields and their explicit
// defaults give the same string while a setting that moves simulated
// metrics gives another.
func TestOptionsFingerprint(t *testing.T) {
	const want = "algorithm=fastrand balancer=modomlb seed=1 topology=crossbar per_hop_s=5e-06 max_iterations=200 faithful=false"
	if got := optionsFingerprint(parsel.Options{}); got != want {
		t.Fatalf("default fingerprint %q, want %q", got, want)
	}
	explicit := parsel.Options{
		Algorithm:     parsel.FastRandomized,
		Balancer:      parsel.ModifiedOMLB,
		Machine:       parsel.Machine{Procs: 4, Seed: 1, PerHop: 5 * time.Microsecond},
		MaxIterations: 200,
	}
	if got := optionsFingerprint(explicit); got != want {
		t.Errorf("explicit defaults fingerprint %q, want %q", got, want)
	}
	for _, o := range []parsel.Options{
		{Algorithm: parsel.MedianOfMedians},
		{Balancer: parsel.GlobalExchange},
		{Machine: parsel.Machine{Seed: 2}},
		{Machine: parsel.Machine{Topology: parsel.TopologyRing}},
		{Machine: parsel.Machine{PerHop: time.Microsecond}},
		{MaxIterations: 50},
		{Faithful: true},
	} {
		if got := optionsFingerprint(o); got == want {
			t.Errorf("%+v: fingerprint equals the default's", o)
		}
	}
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
