package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/parselclient"
	"parsel/parselclient/cluster"
)

// fleet is N independent test daemons plus a router placing datasets
// across them — the cluster e2e rig. The daemons share nothing: no
// common pool, no common snapshot directory, no knowledge of each
// other. Everything cluster-shaped lives in the router.
type fleet struct {
	daemons map[string]*daemon // base URL -> daemon
	urls    []string
	router  *cluster.Router
}

// newFleet spins n daemons on loopback listeners and a router over
// them with the given replica count. RecoveryInterval is effectively
// infinite so a node the test kills stays out of rotation — the test
// controls the health view, not the clock.
func newFleet(t *testing.T, n, replicas int) *fleet {
	t.Helper()
	return newFleetLogged(t, n, replicas, testLogger(t))
}

// newFleetLogged is newFleet with the router's routing events going to
// log.
func newFleetLogged(t *testing.T, n, replicas int, log *slog.Logger) *fleet {
	t.Helper()
	f := &fleet{daemons: make(map[string]*daemon, n)}
	for i := 0; i < n; i++ {
		d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
		t.Cleanup(d.close)
		f.daemons[d.ts.URL] = d
		f.urls = append(f.urls, d.ts.URL)
	}
	r, err := cluster.New(cluster.Config{
		Nodes:            f.urls,
		Replicas:         replicas,
		RecoveryInterval: time.Hour,
		Logger:           log,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.router = r
	return f
}

// uploadsByNode snapshots each daemon's dataset-upload counter, keyed
// by node URL. Snapshot ships land as uploads on the receiving daemon,
// so the counters distinguish "keys moved" from "nothing moved".
func (f *fleet) uploadsByNode() map[string]int64 {
	m := make(map[string]int64, len(f.daemons))
	for url, d := range f.daemons {
		m[url] = d.server.Stats().Datasets.Uploads
	}
	return m
}

// copiesOf counts how many live daemons hold a resident copy of id,
// asking each daemon directly (not through the router).
func (f *fleet) copiesOf(t *testing.T, id string) []string {
	t.Helper()
	var holders []string
	for url, d := range f.daemons {
		_, err := d.client.Dataset(id).Info(context.Background())
		switch {
		case err == nil:
			holders = append(holders, url)
		case errors.Is(err, parselclient.ErrDatasetNotFound):
		default:
			t.Fatalf("info %s on %s: %v", id, url, err)
		}
	}
	return holders
}

// TestClusterKillOneNode is the cluster e2e harness of the replication
// contract: upload the full differential catalogue through the router
// onto a 3-node fleet at 2 replicas — the keys crossing the client
// wire exactly once per dataset, replicas filled purely by node-to-node
// snapshot shipping — then kill the node that is primary for the first
// shape and replay the whole catalogue through the router, asserting
// every response bit-identical to the healthy-fleet run and zero keys
// re-uploaded by the client.
func TestClusterKillOneNode(t *testing.T) {
	shapes := e2eShapes()
	if testing.Short() {
		shapes = shapes[:6]
	}
	f := newFleet(t, 3, 2)
	surface := func(name string) datasetSurface {
		return cluster.DatasetOf[int64](f.router, dsID(name))
	}

	before := runCatalogueOn(t, surface, shapes, true)

	// Replication was pure snapshot shipping: one ship per dataset
	// (replicas=2 means one copy beyond the primary), no shortfalls —
	// the whole fleet was up.
	st := f.router.Stats()
	if st.Shipped != int64(len(shapes)) {
		t.Fatalf("shipped %d snapshots, want %d (one per dataset)", st.Shipped, len(shapes))
	}
	if st.ReplicaShortfalls != 0 || len(st.Down) != 0 {
		t.Fatalf("healthy-fleet upload saw shortfalls: %+v", st)
	}
	// Every dataset is resident on exactly its two placed nodes.
	for _, shape := range shapes {
		id := dsID(shape.name)
		want := f.router.Place(id)
		got := f.copiesOf(t, id)
		if len(got) != len(want) {
			t.Fatalf("%s: resident on %v, want %v", id, got, want)
		}
	}

	// Kill the primary of the first shape — a node that provably owns
	// data — with no drain: listener and pool torn down mid-life.
	victim := f.router.Place(dsID(shapes[0].name))[0]
	f.daemons[victim].close()
	survivors := make(map[string]*daemon, len(f.daemons)-1)
	for url, d := range f.daemons {
		if url != victim {
			survivors[url] = d
		}
	}
	f.daemons = survivors
	preReplay := f.uploadsByNode()

	// The replay: queries only, through the router. Every dataset still
	// has a live replica (R=2, one node down), so the full catalogue
	// answers bit-identically; dataset keys never cross any wire again.
	after := runCatalogueOn(t, surface, shapes, false)
	compareRecords(t, before, after)

	st = f.router.Stats()
	if st.Failovers == 0 {
		t.Errorf("replay never failed over, yet the victim was shape 0's primary")
	}
	if len(st.Down) != 1 || st.Down[0] != victim {
		t.Errorf("rotation view: down=%v, want [%s]", st.Down, victim)
	}
	for url, n := range f.uploadsByNode() {
		if n != preReplay[url] {
			t.Errorf("node %s upload counter moved %d -> %d during replay, want unchanged",
				url, preReplay[url], n)
		}
	}

	// The health probe agrees with the passive view: the victim is the
	// one node with a verdict.
	verdicts := f.router.ProbeHealth(context.Background())
	for url, err := range verdicts {
		if (err != nil) != (url == victim) {
			t.Errorf("probe %s: %v", url, err)
		}
	}
}

// TestClusterRebalanceOnJoin pins the ring-change contract: adding a
// node moves only the datasets the ring now places there, the moves
// are node-to-node snapshot ships (never client re-uploads), surplus
// copies are deleted only after the new replica is confirmed, and the
// post-rebalance fleet answers queries exactly as before. The ring
// hashes the daemons' ephemeral URLs, so it may place none of the
// shapes on the joiner; the test then uploads one more dataset that the
// new ring does place there, so that every run ships at least once.
func TestClusterRebalanceOnJoin(t *testing.T) {
	shapes := e2eShapes()[:8]
	var logs syncBuf
	f := newFleetLogged(t, 3, 2, jsonLogger(t, &logs))
	surface := func(name string) datasetSurface {
		return cluster.DatasetOf[int64](f.router, dsID(name))
	}
	before := runCatalogueOn(t, surface, shapes, true)

	// A fourth daemon joins; the ring is rebuilt and the data follows.
	joined := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	t.Cleanup(joined.close)
	f.daemons[joined.ts.URL] = joined
	f.urls = append(f.urls, joined.ts.URL)
	ids := make([]string, 0, len(shapes)+1)
	for _, shape := range shapes {
		ids = append(ids, dsID(shape.name))
	}
	if extra := joinerID(t, f.urls, ids, joined.ts.URL); extra != "" {
		if _, err := cluster.DatasetOf[int64](f.router, extra).Upload(context.Background(), [][]int64{{3, 1}, {2}}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, extra)
	}
	if err := f.router.SetNodes(f.urls); err != nil {
		t.Fatal(err)
	}
	rep, err := f.router.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Datasets != len(ids) {
		t.Fatalf("rebalance examined %d datasets, want %d", rep.Datasets, len(ids))
	}
	if len(rep.Errors) != 0 || len(rep.Lost) != 0 {
		t.Fatalf("rebalance report: %+v", rep)
	}

	// After the pass every dataset sits on exactly its (new) replica
	// set: fills happened, surpluses are gone.
	moved := 0
	for _, id := range ids {
		want := f.router.Place(id)
		wantSet := make(map[string]bool, len(want))
		for _, n := range want {
			wantSet[n] = true
		}
		got := f.copiesOf(t, id)
		if len(got) != len(want) {
			t.Fatalf("%s: resident on %v, want %v", id, got, want)
		}
		for _, n := range got {
			if !wantSet[n] {
				t.Fatalf("%s: surplus copy on %s survived rebalance", id, n)
			}
		}
		if wantSet[joined.ts.URL] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no dataset is placed on the joiner: the ship path went untested")
	}
	if rep.Shipped != moved || rep.Deleted != moved {
		t.Errorf("rebalance shipped %d, deleted %d; want %d each (datasets placed on the joiner)",
			rep.Shipped, rep.Deleted, moved)
	}
	// Every move is one structured record: a ship names the dataset and
	// both ends, a drop the dataset and the node it left.
	ships, drops := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("router log line %q: %v", line, err)
		}
		ds, _ := rec["dataset"].(string)
		switch rec["msg"] {
		case "cluster: rebalance: shipped":
			ships++
			src, _ := rec["src"].(string)
			if rec["level"] != "INFO" || ds == "" || f.daemons[src] == nil || rec["dst"] != joined.ts.URL {
				t.Errorf("ship record lacks its attrs: %s", line)
			}
		case "cluster: rebalance: dropped surplus":
			drops++
			node, _ := rec["node"].(string)
			if rec["level"] != "INFO" || ds == "" || f.daemons[node] == nil {
				t.Errorf("drop record lacks its attrs: %s", line)
			}
		}
	}
	if ships != rep.Shipped || drops != rep.Deleted {
		t.Errorf("logged %d ships and %d drops, want %d and %d", ships, drops, rep.Shipped, rep.Deleted)
	}

	// A second pass is a no-op: the fleet already matches the ring.
	rep2, err := f.router.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Shipped != 0 || rep2.Deleted != 0 || len(rep2.Errors) != 0 {
		t.Errorf("second rebalance not idempotent: %+v", rep2)
	}

	// The rebalanced fleet answers the catalogue bit-identically.
	after := runCatalogueOn(t, surface, shapes, false)
	compareRecords(t, before, after)
}

// joinerID returns "" when the ring over nodes places one of ids on
// joiner, and otherwise the first of "wd-join-0", "wd-join-1", ... that
// it places there.
func joinerID(t *testing.T, nodes, ids []string, joiner string) string {
	t.Helper()
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	on := func(id string) bool { return slices.Contains(ring.Place(id, 2), joiner) }
	if slices.ContainsFunc(ids, on) {
		return ""
	}
	for i := 0; ; i++ {
		if id := fmt.Sprintf("wd-join-%d", i); on(id) {
			return id
		}
	}
}

// TestClusterStringReplication pins that string datasets replicate
// like every other kind: the upload's replica fills by snapshot
// shipping, queries fail over, and after the primary dies and leaves
// the fleet, Rebalance refills the lost replica by shipping from the
// survivor, and the new replica answers identically.
func TestClusterStringReplication(t *testing.T) {
	f := newFleet(t, 3, 2)
	ctx := context.Background()
	ds := cluster.Keyed[string](f.router).Dataset("words")
	shards := [][]string{{"pear", "apple"}, {"fig", "quince", "mango"}}
	if _, err := ds.Upload(ctx, shards); err != nil {
		t.Fatal(err)
	}
	if st := f.router.Stats(); st.Shipped != 1 || st.ReplicaShortfalls != 0 {
		t.Fatalf("string replication: %+v, want 1 ship", st)
	}
	holders := f.copiesOf(t, "words")
	if len(holders) != 2 {
		t.Fatalf("string dataset resident on %v, want 2 nodes", holders)
	}

	med, err := ds.Median(ctx)
	if err != nil || med.Value != "mango" {
		t.Fatalf("median: %q, %v", med.Value, err)
	}
	// Kill the primary; the shipped replica answers identically.
	victim := f.router.Place("words")[0]
	f.daemons[victim].close()
	delete(f.daemons, victim)
	med2, err := ds.Median(ctx)
	if err != nil || med2.Value != med.Value || simOf(med2.Report) != simOf(med.Report) {
		t.Fatalf("median after kill: %+v, %v; want %+v", med2, err, med)
	}

	// Drop the dead node from the fleet: Rebalance ships the survivor's
	// copy to the node that takes its place.
	var nodes []string
	for _, u := range f.urls {
		if u != victim {
			nodes = append(nodes, u)
		}
	}
	if err := f.router.SetNodes(nodes); err != nil {
		t.Fatal(err)
	}
	rep, err := f.router.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shipped != 1 || len(rep.Errors) != 0 || len(rep.Lost) != 0 {
		t.Fatalf("rebalance after the primary left: %+v, want 1 ship and no errors", rep)
	}
	if st := f.router.Stats(); st.Shipped != 2 {
		t.Fatalf("router shipped %d snapshots, want 2 (upload fill, rebalance)", st.Shipped)
	}
	holders = f.copiesOf(t, "words")
	if len(holders) != 2 {
		t.Fatalf("after rebalance resident on %v, want both remaining nodes", holders)
	}
	for _, url := range holders {
		got, err := parselclient.Keyed[string](f.daemons[url].client).Dataset("words").Median(ctx)
		if err != nil || got.Value != med.Value || simOf(got.Report) != simOf(med.Report) {
			t.Fatalf("node %s median: %+v, %v; want %+v", url, got, err, med)
		}
	}
}

// TestClusterDeleteBroadcast pins that a router delete removes every
// replica: no node still answers for the id afterwards, and not-found
// replicas do not fail the delete.
func TestClusterDeleteBroadcast(t *testing.T) {
	f := newFleet(t, 3, 3)
	ctx := context.Background()
	ds := cluster.DatasetOf[int64](f.router, "doomed")
	if _, err := ds.Upload(ctx, [][]int64{{5, 1}, {9, 3, 7}}); err != nil {
		t.Fatal(err)
	}
	if holders := f.copiesOf(t, "doomed"); len(holders) != 3 {
		t.Fatalf("resident on %v, want all 3 nodes", holders)
	}
	// Remove one copy behind the router's back: delete must treat the
	// hole as success, not an error.
	pre := f.router.Place("doomed")[1]
	if _, err := f.daemons[pre].client.Dataset("doomed").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if holders := f.copiesOf(t, "doomed"); len(holders) != 0 {
		t.Fatalf("copies survive delete on %v", holders)
	}
	if _, err := ds.Info(ctx); !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Fatalf("info after delete: %v, want ErrDatasetNotFound", err)
	}
	if reg := f.router.Datasets(); len(reg) != 0 {
		t.Fatalf("router still tracks %v after delete", reg)
	}
}

// TestClusterFloat64Ships pins that snapshot shipping preserves the
// float64 kind across nodes: the replica's copy carries the kind and
// answers a fractional median only the float64 domain can represent.
func TestClusterFloat64Ships(t *testing.T) {
	f := newFleet(t, 2, 2)
	ctx := context.Background()
	ds := cluster.Keyed[float64](f.router).Dataset("lat")
	if _, err := ds.Upload(ctx, [][]float64{{0.25, 9.75}, {3.5}}); err != nil {
		t.Fatal(err)
	}
	if st := f.router.Stats(); st.Shipped != 1 {
		t.Fatalf("float64 replication: %+v, want 1 ship", st)
	}
	// Ask each node directly: both hold the same typed dataset.
	for url, d := range f.daemons {
		info, err := parselclient.Keyed[float64](d.client).Dataset("lat").Info(ctx)
		if err != nil || info.KeyKind != parselclient.KeyKindFloat64 || info.N != 3 {
			t.Fatalf("node %s: info %+v, %v", url, info, err)
		}
		med, err := parselclient.Keyed[float64](d.client).Dataset("lat").Median(ctx)
		if err != nil || med.Value != 3.5 {
			t.Fatalf("node %s: median %v, %v", url, med.Value, err)
		}
	}
}

// TestClusterPlacementAgreement pins the coordinator-free premise: two
// routers built independently from the same Config place every dataset
// identically.
func TestClusterPlacementAgreement(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r1, err := cluster.New(cluster.Config{Nodes: urls, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cluster.New(cluster.Config{Nodes: urls, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("ds-%d", i)
		p1, p2 := r1.Place(id), r2.Place(id)
		if len(p1) != 2 || len(p2) != 2 || p1[0] != p2[0] || p1[1] != p2[1] {
			t.Fatalf("routers disagree on %s: %v vs %v", id, p1, p2)
		}
	}
}
