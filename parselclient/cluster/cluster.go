package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"parsel"
	"parsel/parselclient"
)

// defaultRecovery is how long a node marked down stays out of rotation
// before the router optimistically tries it again. Long enough that a
// crashed node is not hammered on every query, short enough that a
// bounced daemon rejoins within a breath.
const defaultRecovery = 5 * time.Second

// Config describes the fleet a Router places datasets on.
type Config struct {
	// Nodes are the daemons' base URLs (e.g. "http://10.0.0.1:7075").
	// The URL strings are the ring's hash keys: every client must use
	// the same spellings, and renaming a node moves its share of the
	// ring.
	Nodes []string

	// Replicas is how many nodes hold each dataset (clamped to
	// len(Nodes); 0 means 2). With R replicas, queries survive R-1 node
	// failures without re-uploading anything.
	Replicas int

	// VirtualNodes is the number of ring points per node (0 means 64).
	// All clients of one fleet must agree on it.
	VirtualNodes int

	// RecoveryInterval is how long a failed node stays out of query
	// rotation before being retried (0 means 5s).
	RecoveryInterval time.Duration

	// Logger, when set, receives one structured record per routing
	// event worth a human's attention, with typed attrs (node, dataset,
	// src, dst, err): nodes marked down and failed replica fills at
	// Warn, recoveries and rebalance moves at Info. Nil discards them.
	Logger *slog.Logger

	// Collector, when set, is installed on every per-node client (see
	// parselclient.Collector) and additionally receives the router's own
	// events — "cluster.failover", "cluster.ship", "cluster.shortfall" —
	// with a zero RetryStats delta, so client retries and router traffic
	// shaping land in one scrapeable place.
	Collector parselclient.Collector

	now func() time.Time // test hook; nil means time.Now
}

// Stats counts the router's traffic-shaping decisions since New.
type Stats struct {
	// Shipped counts node-to-node snapshot transfers (replication fills
	// and rebalance moves). The client never touched those keys.
	Shipped int64
	// Failovers counts queries answered by a replica other than the
	// first one tried.
	Failovers int64
	// ReplicaShortfalls counts uploads that returned success with fewer
	// live copies than Config.Replicas (some replica was down; a later
	// Rebalance repairs it).
	ReplicaShortfalls int64
	// Down lists nodes currently out of query rotation, sorted.
	Down []string
}

// Router places datasets on a fleet of parseld nodes by consistent
// hashing and routes every dataset operation to the right replicas. It
// is safe for concurrent use. The Router holds no dataset bytes and no
// authority — any number of Routers (in any number of processes) serve
// the same fleet correctly as long as they share the Config.
type Router struct {
	cfg  Config
	ring *Ring
	log  *slog.Logger // Config.Logger, or a discarding logger when nil

	mu      sync.Mutex
	clients map[string]*parselclient.Client
	downAt  map[string]time.Time // node -> when marked down
	reg     map[string]struct{}  // placed dataset ids
	opts    []parselclient.Option

	shipped    int64
	failovers  int64
	shortfalls int64
}

// New builds a Router over cfg.Nodes, constructing one
// parselclient.Client per node from opts — the same option values
// (token, binary, retry policy, limits) a single-node caller would
// pass to parselclient.New, applied uniformly across the fleet.
func New(cfg Config, opts ...parselclient.Option) (*Router, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("cluster: negative replicas %d", cfg.Replicas)
	}
	if cfg.Replicas > len(cfg.Nodes) {
		cfg.Replicas = len(cfg.Nodes)
	}
	if cfg.RecoveryInterval <= 0 {
		cfg.RecoveryInterval = defaultRecovery
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	ring, err := NewRing(cfg.Nodes, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if cfg.Collector != nil {
		// Every per-node client reports through the same hook; the slice
		// is stored, so SetNodes-added clients inherit it too.
		opts = append(opts, parselclient.WithCollector(cfg.Collector))
	}
	r := &Router{
		cfg:     cfg,
		ring:    ring,
		log:     log,
		clients: make(map[string]*parselclient.Client, len(cfg.Nodes)),
		downAt:  make(map[string]time.Time),
		reg:     make(map[string]struct{}),
		opts:    opts,
	}
	for _, n := range ring.Nodes() {
		r.clients[n] = parselclient.New(n, opts...)
	}
	return r, nil
}

// collect reports a router-level event to the configured Collector
// (zero retry delta — the per-node clients report those themselves).
func (r *Router) collect(op string, err error) {
	if r.cfg.Collector != nil {
		r.cfg.Collector.ClientOp(op, parselclient.RetryStats{}, err)
	}
}

// Place returns the replica set for a dataset id in preference order
// (primary first). Exposed so operators can answer "where does this
// dataset live?" without a coordinator to ask.
func (r *Router) Place(id string) []string {
	r.mu.Lock()
	ring, replicas := r.ring, r.cfg.Replicas
	r.mu.Unlock()
	return ring.Place(id, replicas)
}

// nodes returns the current fleet's node list. The ring pointer is
// read under the lock (SetNodes swaps it); the Ring itself is
// immutable, so the walk needs no further guarding.
func (r *Router) nodes() []string {
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	return ring.Nodes()
}

// Client returns the per-node client for a node named in Config.Nodes,
// or nil for an unknown node. Useful for node-scoped operations (stats,
// health) outside the router's routing.
func (r *Router) Client(node string) *parselclient.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients[node]
}

// alive reports whether a node is in query rotation. A node marked
// down re-enters rotation after RecoveryInterval — optimistically, so
// a recovered daemon starts taking traffic without an explicit probe;
// if it is still dead the next failure marks it right back down.
func (r *Router) alive(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, down := r.downAt[node]
	return !down || r.cfg.now().Sub(at) >= r.cfg.RecoveryInterval
}

func (r *Router) markDown(node string, err error) {
	r.mu.Lock()
	_, was := r.downAt[node]
	r.downAt[node] = r.cfg.now()
	r.mu.Unlock()
	if !was {
		r.log.Warn("cluster: node out of rotation", "node", node, "err", err)
	}
}

// markShipDown updates the health view after a failed snapshot ship,
// attributing the fault to the side that produced it: a source-side
// export failure (ShipSourceError) indicts src — the destination never
// saw bytes — anything else reached dst. Either way only transient
// faults take a node out of rotation; deterministic rejections (budget
// exceeded, bad_kind) mean the node is healthy and just said no, and
// pulling it from query rotation would cause needless failovers.
func (r *Router) markShipDown(src, dst string, err error) {
	var se *parselclient.ShipSourceError
	if errors.As(err, &se) {
		if parselclient.Retryable(se.Err) {
			r.markDown(src, err)
		}
		return
	}
	if parselclient.Retryable(err) {
		r.markDown(dst, err)
	}
}

func (r *Router) markUp(node string) {
	r.mu.Lock()
	_, was := r.downAt[node]
	delete(r.downAt, node)
	r.mu.Unlock()
	if was {
		r.log.Info("cluster: node back in rotation", "node", node)
	}
}

// ProbeHealth checks every node's /healthz and updates the rotation
// view: draining or unreachable nodes leave rotation, healthy (or
// degraded — still answering queries) nodes rejoin. Returns each
// node's verdict, nil meaning in rotation. Callers run it on a ticker;
// between probes the router learns the same facts passively from
// request failures.
func (r *Router) ProbeHealth(ctx context.Context) map[string]error {
	verdicts := make(map[string]error, len(r.clients))
	var wg sync.WaitGroup
	var vmu sync.Mutex
	for node, c := range r.snapshotClients() {
		wg.Add(1)
		go func(node string, c *parselclient.Client) {
			defer wg.Done()
			hs, err := c.Healthz(ctx)
			if err == nil && hs.Status == parselclient.HealthDraining {
				err = fmt.Errorf("cluster: node draining: %s", hs.Reason)
			}
			if err != nil {
				r.markDown(node, err)
			} else {
				r.markUp(node)
			}
			vmu.Lock()
			verdicts[node] = err
			vmu.Unlock()
		}(node, c)
	}
	wg.Wait()
	return verdicts
}

func (r *Router) snapshotClients() map[string]*parselclient.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]*parselclient.Client, len(r.clients))
	for k, v := range r.clients {
		m[k] = v
	}
	return m
}

// Stats returns a snapshot of the router's counters and rotation view.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Shipped:           r.shipped,
		Failovers:         r.failovers,
		ReplicaShortfalls: r.shortfalls,
	}
	now := r.cfg.now()
	for n, at := range r.downAt {
		if now.Sub(at) < r.cfg.RecoveryInterval {
			s.Down = append(s.Down, n)
		}
	}
	sort.Strings(s.Down)
	return s
}

// Datasets lists the dataset ids this Router has placed (uploaded or
// registered via Track), sorted. It is this Router's memory, not
// cluster truth — another Router's uploads are invisible until
// registered via Track.
func (r *Router) Datasets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Sorted(maps.Keys(r.reg))
}

// Track registers a dataset id this Router did not upload itself, so
// Rebalance and Delete cover it.
func (r *Router) Track(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg[id] = struct{}{}
}

func (r *Router) untrack(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.reg, id)
}

// failoverable decides whether an error from one replica justifies
// trying the next: transient faults by the retry classifier (transport
// errors, overload, shutdown), plus dataset-not-found — a replica that
// lost its copy (restarted before re-replication) is wrong to trust,
// but another replica may well still hold the data.
func failoverable(err error) bool {
	return parselclient.Retryable(err) || errors.Is(err, parselclient.ErrDatasetNotFound)
}

// failover runs op against the dataset's replicas in placement order
// until one succeeds. Nodes out of rotation are deferred, not skipped:
// if every in-rotation replica fails, the out-of-rotation ones get one
// try each before the call fails — availability beats the health
// view's freshness. Deterministic errors (bad rank, kind mismatch …)
// return immediately: every replica would say the same thing, because
// the query outcome is a pure function of the dataset and the query.
//
// Retry amplification stays bounded: each per-node client applies its
// own RetryPolicy budget, and the failover loop visits each replica at
// most once per call.
//
// The operation's request id is resolved here — the caller's via
// parselclient.WithRequestID, or a fresh one — and pinned into the
// context every replica attempt runs under, so one id ties the whole
// failover chain together in every node's logs.
func failover[T any](ctx context.Context, r *Router, id string, op func(ctx context.Context, c *parselclient.Client) (T, error)) (T, error) {
	var zero T
	ctx = withOperationID(ctx)
	replicas := r.Place(id)
	tried := make(map[string]bool, len(replicas))
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for _, node := range replicas {
			if tried[node] || (pass == 0 && !r.alive(node)) {
				continue
			}
			tried[node] = true
			c := r.Client(node)
			if c == nil {
				continue
			}
			v, err := op(ctx, c)
			if err == nil {
				r.markUp(node)
				if len(tried) > 1 {
					r.bump(&r.failovers)
				}
				return v, nil
			}
			lastErr = err
			if !failoverable(err) {
				return zero, err
			}
			if parselclient.Retryable(err) {
				r.markDown(node, err)
			}
		}
	}
	if lastErr == nil {
		return zero, fmt.Errorf("cluster: no replicas for dataset %q", id)
	}
	return zero, lastErr
}

// withOperationID pins a request id into ctx if the caller has not
// already: every attempt of a multi-node operation then carries the
// same X-Parsel-Request-Id.
func withOperationID(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := parselclient.RequestIDFrom(ctx); !ok {
		ctx = parselclient.WithRequestID(ctx, parselclient.NewRequestID())
	}
	return ctx
}

// KindRouter is the typed view of a Router for key kind K, mirroring
// parselclient.KindClient.
type KindRouter[K parselclient.Key] struct {
	r *Router
}

// Keyed returns the typed view of the router for key kind K:
//
//	ds := cluster.Keyed[float64](router).Dataset("latencies")
func Keyed[K parselclient.Key](r *Router) KindRouter[K] {
	return KindRouter[K]{r: r}
}

// Dataset returns a handle on the dataset with the given id, placed
// and replicated by the router.
func (kr KindRouter[K]) Dataset(id string) *Dataset[K] {
	d := &Dataset[K]{r: kr.r, id: id}
	d.verbs = d.Run
	return d
}

// DatasetOf is shorthand for Keyed[K](r).Dataset(id).
func DatasetOf[K parselclient.Key](r *Router, id string) *Dataset[K] {
	return Keyed[K](r).Dataset(id)
}

// Dataset is a replicated resident dataset addressed through the ring.
// Its query surface matches parselclient.RemoteDatasetOf: Run, the
// embedded parsel.Verbs bound to it (d.Median(ctx)) and QueryMany;
// every query fails over across replicas.
type Dataset[K parselclient.Key] struct {
	verbs[K] // bound to Run

	r  *Router
	id string
}

// verbs is parsel.Verbs under an unexported name, so Dataset gains the
// eight methods without an exported, writable field.
type verbs[K parselclient.Key] = parsel.Verbs[K]

// ID returns the dataset id.
func (d *Dataset[K]) ID() string { return d.id }

// remote returns the single-node handle for this dataset on c.
func (d *Dataset[K]) remote(c *parselclient.Client) *parselclient.RemoteDatasetOf[K] {
	return parselclient.Keyed[K](c).Dataset(d.id)
}

// Upload makes the dataset resident on its replica set. The shards
// travel the client wire once, to the first live replica in placement
// order; the remaining replicas are filled node-to-node by snapshot
// shipping.
//
// A replica that is down at upload time is skipped and counted in
// Stats.ReplicaShortfalls; Rebalance repairs the shortfall once the
// node returns. The call fails only if no replica accepted the upload.
func (d *Dataset[K]) Upload(ctx context.Context, shards [][]K) (parselclient.DatasetInfo, error) {
	ctx = withOperationID(ctx) // one id for the landing and every replica fill
	replicas := d.r.Place(d.id)

	// Land the shards on the first replica that will take them.
	var info parselclient.DatasetInfo
	var primary string
	var lastErr error
	tried := make(map[string]bool, len(replicas))
	for pass := 0; pass < 2 && primary == ""; pass++ {
		for _, node := range replicas {
			if tried[node] || (pass == 0 && !d.r.alive(node)) {
				continue
			}
			tried[node] = true
			c := d.r.Client(node)
			if c == nil { // node removed by a concurrent SetNodes
				continue
			}
			i, err := d.remote(c).Upload(ctx, shards)
			if err == nil {
				d.r.markUp(node)
				info, primary = i, node
				break
			}
			lastErr = err
			if !failoverable(err) {
				return parselclient.DatasetInfo{}, err
			}
			d.r.markDown(node, err)
		}
	}
	if primary == "" {
		if lastErr == nil {
			lastErr = fmt.Errorf("cluster: no replicas for dataset %q", d.id)
		}
		return parselclient.DatasetInfo{}, lastErr
	}

	// Fill the other replicas.
	live := 1
	for _, node := range replicas {
		if node == primary {
			continue
		}
		if !d.r.alive(node) {
			continue
		}
		dst := d.r.Client(node)
		if dst == nil { // node removed by a concurrent SetNodes
			continue
		}
		src := d.r.Client(primary)
		if src == nil {
			// The primary left the fleet between landing and fill;
			// the shortfall count below flags it for Rebalance.
			break
		}
		if _, err := src.ShipSnapshot(ctx, d.id, dst); err != nil {
			d.r.markShipDown(primary, node, err)
			d.r.log.Warn("cluster: replicate failed", "dataset", d.id, "node", node, "err", err)
			continue
		}
		d.r.bump(&d.r.shipped)
		d.r.markUp(node)
		live++
	}
	if live < len(replicas) {
		d.r.bump(&d.r.shortfalls)
	}
	d.r.Track(d.id)
	return info, nil
}

// bump increments one router counter and mirrors the event to the
// Collector, so the scraped view moves in lockstep with Stats().
func (r *Router) bump(counter *int64) {
	var op string
	switch counter {
	case &r.shipped:
		op = "cluster.ship"
	case &r.failovers:
		op = "cluster.failover"
	case &r.shortfalls:
		op = "cluster.shortfall"
	}
	r.mu.Lock()
	*counter++
	r.mu.Unlock()
	if op != "" {
		r.collect(op, nil)
	}
}

// Info fetches the dataset's description from the first replica that
// answers.
func (d *Dataset[K]) Info(ctx context.Context) (parselclient.DatasetInfo, error) {
	return failover(ctx, d.r, d.id, func(ctx context.Context, c *parselclient.Client) (parselclient.DatasetInfo, error) {
		return d.remote(c).Info(ctx)
	})
}

// Delete removes the dataset from every node that holds a copy. The
// sweep covers the whole fleet, not just the current replica set:
// after a SetNodes, copies can linger on ex-replicas until a Rebalance
// surplus-drop, and delete means delete everywhere. Nodes without a
// copy are fine (not-found is success for a delete); the call fails
// only if some copy may remain — a node that was unreachable stays
// suspect. Copies on nodes removed from the fleet entirely are out of
// the router's reach; TTL cleans those.
func (d *Dataset[K]) Delete(ctx context.Context) (parselclient.DatasetInfo, error) {
	ctx = withOperationID(ctx) // one id for the fleet-wide sweep
	var info parselclient.DatasetInfo
	var got bool
	var firstErr error
	for _, node := range d.r.nodes() {
		c := d.r.Client(node)
		if c == nil { // node removed by a concurrent SetNodes
			continue
		}
		i, err := d.remote(c).Delete(ctx)
		switch {
		case err == nil:
			if !got {
				info, got = i, true
			}
		case errors.Is(err, parselclient.ErrDatasetNotFound):
			// already gone — that is what we wanted
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: delete %q on %s: %w", d.id, node, err)
			}
			if parselclient.Retryable(err) {
				d.r.markDown(node, err)
			}
		}
	}
	if firstErr != nil {
		return parselclient.DatasetInfo{}, firstErr
	}
	d.r.untrack(d.id)
	if !got {
		return parselclient.DatasetInfo{}, parselclient.ErrDatasetNotFound
	}
	return info, nil
}

// Run answers one query against the first replica that answers; see
// parselclient.RemoteDatasetOf.Run. Every replica attempt runs under
// the context failover pins, so the whole chain shares one request id.
func (d *Dataset[K]) Run(ctx context.Context, q parsel.Query) (parsel.Answer[K], error) {
	return failover(ctx, d.r, d.id, func(ctx context.Context, c *parselclient.Client) (parsel.Answer[K], error) {
		return d.remote(c).Run(ctx, q)
	})
}

// QueryMany runs a batch of queries in one round trip against the
// first replica that answers. Per-item failures ride inside the batch
// result (they are deterministic); only whole-batch failures fail
// over.
func (d *Dataset[K]) QueryMany(ctx context.Context, queries []parselclient.DatasetQuery) ([]parselclient.QueryManyResultOf[K], error) {
	return failover(ctx, d.r, d.id, func(ctx context.Context, c *parselclient.Client) ([]parselclient.QueryManyResultOf[K], error) {
		return d.remote(c).QueryMany(ctx, queries)
	})
}
