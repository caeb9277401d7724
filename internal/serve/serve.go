// Package serve is the HTTP front-end of the selection service: a
// handler that exposes every parsel.Op as POST /v1/<op> over shards in
// the body, and again as the kind of a resident dataset query, as
// JSON-over-HTTP with per-request admission deadlines, a bounded
// admission queue, graceful drain, and a stats endpoint aggregating
// simulated-machine metrics and host latency histograms. Every wire item
// goes through one parse step to a parsel.Query, every query endpoint
// through one execution tail (runQueries), and every answer through one
// conversion to the wire response.
//
// The wire format is defined (and documented) in parsel/parselclient,
// which this package shares types with; cmd/parseld wraps this handler
// in a daemon process.
//
// # Overload behavior
//
// Three lines of defense keep the daemon responsive under load:
//
//  1. Admission queue: at most MaxMachines + QueueDepth requests are
//     admitted at once; the rest are rejected immediately with 429
//     "queue_full" (no queueing, constant-time rejection).
//  2. Admission deadline: an admitted request waits for a free
//     simulated machine at most its timeout_ms (capped by MaxTimeout,
//     defaulted by DefaultTimeout). Expiry returns 429 "pool_timeout" —
//     the pool's typed ErrPoolTimeout on the wire. A query that starts
//     always runs to completion, so no partial work is ever returned.
//  3. Drain: once draining, every new query gets 503 "shutting_down"
//     while in-flight queries finish normally.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsel"
	"parsel/internal/fanout"
	"parsel/internal/obs"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// Tenant is one static tenant of a multi-tenant daemon: a bearer
// token plus the slice of the daemon's resources the tenant may hold.
type Tenant struct {
	// Name identifies the tenant in stats and snapshot manifests.
	Name string `json:"name"`
	// Token is the static bearer credential; requests carrying it in
	// the Authorization header act as this tenant.
	Token string `json:"token"`
	// MaxResidentBytes budgets the tenant's resident dataset bytes;
	// 0 means bounded only by the daemon-wide budget.
	MaxResidentBytes int64 `json:"max_resident_bytes"`
	// MaxDatasets caps the tenant's resident dataset count; 0 means
	// bounded only by the daemon-wide cap.
	MaxDatasets int `json:"max_datasets"`
}

// usage is one row of the dataset ledger: what a holder has resident
// or reserved (bytes and datasets, reservations for uploads in flight
// included) and, for a tenant, its request and rejection counters.
// The daemon keeps one row for itself and one per tenant name; rows
// change only through chargeLocked, under dsMu.
type usage struct {
	bytes, datasets    int64
	requests, rejected int64
}

// Options configures a Server. Zero-valued knobs take defaults.
type Options struct {
	// Pool is the resident machine pool int64 queries run on, and the
	// template for the other kinds' pools: New builds the string pool,
	// and the float64 pool unless PoolFloat64 is given, from Pool's
	// options and machine count, and owns them (Close releases them).
	// Required.
	Pool *parsel.Pool[int64]
	// PoolFloat64 runs float64-kinded queries; nil builds one from Pool.
	PoolFloat64 *parsel.Pool[float64]
	// Tenants, when non-empty, turns on tenant admission: every
	// endpoint except /healthz requires a bearer token matching one
	// tenant, uploads charge that tenant's ledger, and /v1/stats grows
	// per-tenant blocks. Empty leaves the daemon single-tenant and
	// unauthenticated, exactly as before.
	Tenants []Tenant
	// DefaultTimeout is the admission deadline for requests that do not
	// carry timeout_ms (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout_ms (default 60s).
	MaxTimeout time.Duration
	// QueueDepth is how many requests beyond the pool's MaxMachines may
	// wait for a machine before new ones are rejected outright with
	// queue_full (default 64).
	QueueDepth int
	// Limits bounds individual requests; see Limits.
	Limits Limits
	// DatasetTTL is how long a resident dataset survives without being
	// uploaded to or queried before the lazy sweep evicts it (default 10
	// minutes).
	DatasetTTL time.Duration
	// MaxResidentBytes budgets the total resident size of all datasets;
	// an upload that would exceed it is refused with 413 resident_budget
	// (default 1 GiB).
	MaxResidentBytes int64
	// MaxDatasets caps the number of resident datasets, so unbounded
	// tiny (even empty) uploads cannot grow the registry under the bytes
	// budget (default 1024).
	MaxDatasets int
	// SnapshotDir, when non-empty, makes resident datasets durable: a
	// snapshot store in this directory mirrors the registry (persisted
	// in the background on upload, synchronously on drain) and startup
	// recovers every live manifest entry under its original id and TTL
	// state. Empty disables persistence. A Server built with a
	// SnapshotDir owns a background snapshotter goroutine that runs
	// until Drain; an embedder that discards such a Server without
	// draining leaks it for the process lifetime.
	SnapshotDir string
	// Logger receives the daemon's structured log records: operational
	// events (snapshot recovery warnings, persist failures, recovered
	// panics), admission rejections and panics at Warn/Error, and
	// per-request access records at Debug — each carrying the request's
	// X-Parsel-Request-Id. Nil sends records to slog.Default().
	Logger *slog.Logger
	// TenantSource, when non-nil, powers POST /v1/admin/tenants/reload:
	// the handler calls it for the fresh tenant list (cmd/parseld wires
	// it to reread the -tenants file) and applies it via ReloadTenants.
	// Nil leaves the endpoint unregistered (404). Only meaningful on a
	// daemon started with Tenants; the endpoint authenticates like any
	// other, so any configured tenant's token can trigger a reload.
	TenantSource func() ([]Tenant, error)
	// Middleware, when non-nil, wraps the routing handler — the hook
	// chaos tests use to splice a fault injector
	// (internal/faults.Injector.Middleware) into the daemon. It runs
	// inside the panic-recovery middleware, so an injected
	// http.ErrAbortHandler still aborts the connection while any other
	// panic is recovered and counted.
	Middleware func(http.Handler) http.Handler
}

// withDefaults fills the zero-valued knobs.
func (o Options) withDefaults() Options {
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 5 * time.Second
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 60 * time.Second
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.DatasetTTL == 0 {
		o.DatasetTTL = 10 * time.Minute
	}
	if o.MaxResidentBytes == 0 {
		o.MaxResidentBytes = 1 << 30
	}
	if o.MaxDatasets == 0 {
		o.MaxDatasets = 1024
	}
	o.Limits = o.Limits.withDefaults()
	return o
}

// Server is the HTTP handler of the selection daemon. Construct with
// New; it is safe for concurrent use.
type Server struct {
	opts Options
	pool *parsel.Pool[int64]
	// kinds is the kind table (see kind.go): one row per key kind name.
	kinds map[string]keyKind
	// ownedClose releases the kind pools New built itself; Close runs
	// them.
	ownedClose []func()
	// tenancy is fixed at New: whether the daemon authenticates at all.
	// Immutable, so the admission fast path reads it lock-free;
	// ReloadTenants can swap the maps below but never toggle this.
	tenancy bool
	// tenants maps bearer token → tenant configuration and
	// tenantsByName maps name → the same configuration. Both are nil
	// when tenancy is off; guarded by dsMu (ReloadTenants replaces them
	// wholesale). Usage is not configuration: it lives in the ledger
	// rows below, keyed by name, which no reload touches.
	tenants       map[string]Tenant
	tenantsByName map[string]Tenant
	mux           *http.ServeMux
	handler       http.Handler  // recovery → Options.Middleware → routing
	admit         chan struct{} // admission tokens: MaxMachines + QueueDepth

	mu       sync.Mutex
	draining bool
	srv      parselclient.ServerStats
	sim      parselclient.SimStats

	// metrics is the obs instrument set behind GET /metrics; its
	// latency histogram is also what Stats() renders, so the two
	// endpoints always agree.
	metrics *serverMetrics

	// The resident-dataset registry (see dataset.go) and its ledger:
	// total is the daemon's row, byTenant one row per tenant name (see
	// chargeLocked). dsMu also guards now, the clock the TTL sweep
	// reads — a test hook.
	dsMu     sync.Mutex
	datasets map[string]*dsEntry
	total    usage
	byTenant map[string]usage
	dstats   parselclient.DatasetStats
	now      func() time.Time

	// Dataset durability (see snapshot.go); snap is nil when disabled.
	// Lock order: snapMu is only ever taken after dsMu, never before.
	snap      *snapshot.Store
	optionsFP string
	log       *slog.Logger
	snapGen   atomic.Int64
	// snapMu guards the dirty set, the inflight count and the stats;
	// snapCond (on snapMu) wakes flushers when an in-flight persist
	// finishes. snapIOMu serializes persistOne bodies so a stale
	// registry observation can never overwrite a newer one's disk
	// state.
	snapMu       sync.Mutex
	snapCond     *sync.Cond
	snapDirty    map[string]struct{}
	snapInflight int
	sstats       parselclient.SnapshotStats
	snapIOMu     sync.Mutex
	snapWake     chan struct{}
	snapStop     chan struct{}
	snapDone     chan struct{}
	snapOnce     sync.Once
}

// New builds the daemon handler over a pool. The pools passed in stay
// owned by the caller (Drain does not close them), so one pool can
// outlive or be shared across servers; kind pools New builds itself
// are owned by the Server and released by Close.
func New(opts Options) (*Server, error) {
	if opts.Pool == nil {
		return nil, errors.New("serve: Options.Pool is required")
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: QueueDepth %d is negative", opts.QueueDepth)
	}
	if opts.DefaultTimeout < 0 || opts.MaxTimeout < 0 {
		return nil, fmt.Errorf("serve: negative timeout (default %v, max %v)",
			opts.DefaultTimeout, opts.MaxTimeout)
	}
	if opts.Limits.MaxBodyBytes < 0 || opts.Limits.MaxProcs < 0 ||
		opts.Limits.MaxRanks < 0 || opts.Limits.MaxBatch < 0 {
		return nil, fmt.Errorf("serve: negative limit: %+v", opts.Limits)
	}
	if opts.DatasetTTL < 0 {
		return nil, fmt.Errorf("serve: DatasetTTL %v is negative", opts.DatasetTTL)
	}
	if opts.MaxResidentBytes < 0 || opts.MaxDatasets < 0 {
		return nil, fmt.Errorf("serve: negative dataset bound (budget %d bytes, %d datasets)",
			opts.MaxResidentBytes, opts.MaxDatasets)
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		pool:      opts.Pool,
		admit:     make(chan struct{}, opts.Pool.MaxMachines()+opts.QueueDepth),
		datasets:  make(map[string]*dsEntry),
		byTenant:  make(map[string]usage),
		now:       time.Now,
		optionsFP: fmt.Sprintf("%+v", opts.Pool.Options()),
		log:       opts.Logger,
		metrics:   newServerMetrics(),
		snapDirty: make(map[string]struct{}),
		snapWake:  make(chan struct{}, 1),
		snapStop:  make(chan struct{}),
		snapDone:  make(chan struct{}),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	// The kind table. The non-int64 kind pools default to clones of the
	// int64 pool's shape, so a daemon configured for one kind serves all
	// three. Admission (the admit channel) is shared across kinds: it
	// bounds requests in flight, not machines per kind.
	f64 := opts.PoolFloat64
	if f64 == nil {
		f64 = ownPool[float64](s)
	}
	s.kinds = map[string]keyKind{
		parselclient.KeyKindInt64:   kindOf[int64]{s.pool},
		parselclient.KeyKindFloat64: kindOf[float64]{f64},
		parselclient.KeyKindString:  kindOf[string]{ownPool[string](s)},
	}
	if len(opts.Tenants) > 0 {
		byToken, byName, err := buildTenantMaps(opts.Tenants)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.tenancy = true
		s.tenants, s.tenantsByName = byToken, byName
	}
	s.snapCond = sync.NewCond(&s.snapMu)
	if opts.SnapshotDir != "" {
		if err := s.initSnapshots(opts.SnapshotDir); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	for _, op := range parsel.Ops() {
		s.mux.HandleFunc("/v1/"+op.String(), s.queryHandler(op))
	}
	s.mux.HandleFunc("/v1/datasets/", s.handleDatasets)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	if opts.TenantSource != nil {
		s.mux.HandleFunc("/v1/admin/tenants/reload", s.handleTenantReload)
	}
	s.handler = http.Handler(http.HandlerFunc(s.route))
	if opts.Middleware != nil {
		s.handler = opts.Middleware(s.handler)
	}
	s.handler = s.recoverPanics(s.handler)
	return s, nil
}

// ownPool builds a K pool of the int64 pool's options and machine
// count, owned by the Server (Close releases it). The int64 pool's
// options already built a pool, so this cannot fail.
func ownPool[K parselclient.Key](s *Server) *parsel.Pool[K] {
	p, err := parsel.NewPool[K](s.pool.Options(), parsel.PoolOptions{MaxMachines: s.pool.MaxMachines()})
	if err != nil {
		panic(fmt.Sprintf("serve: build %s pool from a working pool's options: %v", parselclient.KeyKindOf[K](), err))
	}
	s.ownedClose = append(s.ownedClose, p.Close)
	return p
}

// buildTenantMaps validates a tenant list and builds the lookup maps:
// token → configuration and name → configuration. Shared between New
// and ReloadTenants so both enforce identical rules.
func buildTenantMaps(tenants []Tenant) (byToken, byName map[string]Tenant, err error) {
	byToken = make(map[string]Tenant, len(tenants))
	byName = make(map[string]Tenant, len(tenants))
	for _, t := range tenants {
		if t.Name == "" || t.Token == "" {
			return nil, nil, fmt.Errorf("serve: tenant needs both a name and a token (got name %q)", t.Name)
		}
		if t.MaxResidentBytes < 0 || t.MaxDatasets < 0 {
			return nil, nil, fmt.Errorf("serve: tenant %q has a negative bound", t.Name)
		}
		if _, dup := byToken[t.Token]; dup {
			return nil, nil, errors.New("serve: duplicate tenant token")
		}
		if _, dup := byName[t.Name]; dup {
			return nil, nil, fmt.Errorf("serve: duplicate tenant name %q", t.Name)
		}
		byToken[t.Token] = t
		byName[t.Name] = t
	}
	return byToken, byName, nil
}

// ReloadTenants swaps the tenant configuration without a restart —
// rotated tokens take effect on the next request, adjusted budgets on
// the next upload. It swaps configuration only: usage is kept in
// ledger rows keyed by tenant name, so a tenant's resident bytes,
// dataset count and request counters follow its name across any
// sequence of reloads — a tenant that is dropped and later re-added
// resumes its row, still charged for the datasets it holds. A tenant
// that disappears keeps its resident datasets until TTL or deletion,
// but its token stops authenticating immediately. Tenancy itself
// cannot be toggled at runtime: a daemon started without tenants stays
// unauthenticated (the admission fast path is lock-free on that
// invariant), and a tenanted daemon refuses an empty reload rather
// than silently opening up.
func (s *Server) ReloadTenants(tenants []Tenant) error {
	if !s.tenancy {
		return errors.New("serve: daemon runs without tenants; start with Options.Tenants to enable tenancy")
	}
	if len(tenants) == 0 {
		return errors.New("serve: refusing to reload an empty tenant list (it would lock every caller out)")
	}
	byToken, byName, err := buildTenantMaps(tenants)
	if err != nil {
		return err
	}
	s.dsMu.Lock()
	s.tenants, s.tenantsByName = byToken, byName
	s.dsMu.Unlock()
	return nil
}

// SetNowForTest replaces the clock the dataset TTL sweep reads, so
// tests can advance time deterministically instead of sleeping.
func (s *Server) SetNowForTest(now func() time.Time) {
	s.dsMu.Lock()
	s.now = now
	s.dsMu.Unlock()
}

// ServeHTTP implements http.Handler: the recovery middleware, the
// optional Options.Middleware, then routing.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// route is the innermost handler: the unknown-path check, tenant
// authentication, then the mux.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	if _, ok := opOfPath(r.URL.Path); !ok &&
		!strings.HasPrefix(r.URL.Path, "/v1/datasets/") &&
		r.URL.Path != "/v1/stats" && r.URL.Path != "/healthz" &&
		r.URL.Path != "/metrics" &&
		!(r.URL.Path == "/v1/admin/tenants/reload" && s.opts.TenantSource != nil) {
		writeError(w, http.StatusNotFound, parselclient.CodeNotFound,
			fmt.Sprintf("no endpoint %q", r.URL.Path))
		return
	}
	if r, ok := s.authenticate(w, r); ok {
		s.mux.ServeHTTP(w, r)
	}
}

// tenantCtxKey carries the authenticated tenant's name through the
// request context; absent (or empty) on a daemon without tenants.
type tenantCtxKey struct{}

// tenantOf reads the authenticated tenant name off the request.
func tenantOf(r *http.Request) string {
	name, _ := r.Context().Value(tenantCtxKey{}).(string)
	return name
}

// authenticate enforces tenant admission when Options.Tenants is set:
// every endpoint except /healthz (load balancers probe unauthenticated)
// must carry "Authorization: Bearer <token>" naming a configured
// tenant. On success the tenant's name rides the request context; any
// other outcome is a 401 unknown_tenant, already written here.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (*http.Request, bool) {
	if !s.tenancy || r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
		return r, true
	}
	auth := r.Header.Get("Authorization")
	scheme, token, _ := strings.Cut(auth, " ")
	var te Tenant
	var ok bool
	s.dsMu.Lock()
	if strings.EqualFold(scheme, "Bearer") {
		te, ok = s.tenants[strings.TrimSpace(token)]
	}
	if ok {
		s.chargeLocked(te.Name, usage{requests: 1})
	}
	s.dsMu.Unlock()
	if !ok {
		s.countError(http.StatusUnauthorized, parselclient.CodeUnknownTenant)
		writeError(w, http.StatusUnauthorized, parselclient.CodeUnknownTenant,
			"this daemon requires a bearer token naming a configured tenant")
		return r, false
	}
	if tr := trackFrom(r.Context()); tr != nil {
		tr.tenant = te.Name
	}
	ctx := context.WithValue(r.Context(), tenantCtxKey{}, te.Name)
	return r.WithContext(ctx), true
}

// statusWriter remembers whether the handler already started a
// response — so the recovery middleware knows if a 500 can still be
// written — and which status code it committed, for the request
// metrics and access log.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
	code  int
}

// commit records that the response is started; the first committed
// status sticks.
func (w *statusWriter) commit(code int) {
	if !w.wrote {
		w.wrote = true
		w.code = code
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.commit(code)
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.commit(http.StatusOK)
	return w.ResponseWriter.Write(b)
}

// The statusWriter variants forward the optional interfaces the
// underlying ResponseWriter supports. A plain statusWriter would hide
// them — interface assertions see the wrapper, not what it wraps — so
// wrapping the net/http writer used to cost streaming handlers their
// Flush and the body copy its sendfile fast path.

type statusWriterFlusher struct {
	*statusWriter
	f http.Flusher
}

func (w *statusWriterFlusher) Flush() {
	// A flush sends the headers if none were written; the status is
	// committed either way.
	w.commit(http.StatusOK)
	w.f.Flush()
}

type statusWriterReaderFrom struct {
	*statusWriter
	rf io.ReaderFrom
}

func (w *statusWriterReaderFrom) ReadFrom(r io.Reader) (int64, error) {
	w.commit(http.StatusOK)
	return w.rf.ReadFrom(r)
}

type statusWriterFlusherReaderFrom struct {
	statusWriterFlusher
	rf io.ReaderFrom
}

func (w *statusWriterFlusherReaderFrom) ReadFrom(r io.Reader) (int64, error) {
	w.commit(http.StatusOK)
	return w.rf.ReadFrom(r)
}

// wrapStatusWriter wraps w for the recovery middleware, returning the
// tracking core plus the writer to pass downstream — the narrowest
// variant that still exposes every optional interface w supports.
func wrapStatusWriter(w http.ResponseWriter) (*statusWriter, http.ResponseWriter) {
	sw := &statusWriter{ResponseWriter: w}
	f, isFlusher := w.(http.Flusher)
	rf, isReaderFrom := w.(io.ReaderFrom)
	switch {
	case isFlusher && isReaderFrom:
		return sw, &statusWriterFlusherReaderFrom{statusWriterFlusher{sw, f}, rf}
	case isFlusher:
		return sw, &statusWriterFlusher{sw, f}
	case isReaderFrom:
		return sw, &statusWriterReaderFrom{sw, rf}
	default:
		return sw, sw
	}
}

// recoverPanics is the outermost middleware: a panicking handler
// answers a structured 500 instead of tearing down the connection (and
// the daemon's goroutine) silently. http.ErrAbortHandler re-panics —
// it is the standard library's (and the fault injector's) deliberate
// abort-the-connection signal, not a fault to mask. Recovered panics
// are logged with the stack and counted in ServerStats.Panics.
// It is also where request tracking begins and ends: the request id
// (the client's X-Parsel-Request-Id, or a fresh one) is resolved,
// echoed on the response up front, and carried through the context; on
// the way out the request lands in parsel_requests_total, the stage
// histograms, and the Debug-level access log. An ErrAbortHandler
// re-panic skips the bookkeeping — the connection died mid-flight, so
// there is no status code to attribute.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := &reqTrack{start: time.Now(), id: r.Header.Get(RequestIDHeader)}
		if tr.id == "" {
			tr.id = obs.NewRequestID()
		}
		r = r.WithContext(context.WithValue(r.Context(), trackKey{}, tr))
		sw, dw := wrapStatusWriter(w)
		dw.Header().Set(RequestIDHeader, tr.id)
		defer func() {
			rec := recover()
			if rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.mu.Lock()
				s.srv.Panics++
				s.mu.Unlock()
				s.countError(http.StatusInternalServerError, parselclient.CodeInternal)
				s.log.Error("serve: panic recovered",
					"request_id", tr.id, "method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, parselclient.CodeInternal,
						"internal fault (recovered panic)")
				}
			}
			s.finishRequest(tr, sw.code, r)
		}()
		next.ServeHTTP(dw, r)
	})
}

// Drain begins graceful shutdown: every subsequent query is answered
// 503 shutting_down, while queries already admitted run to completion.
// With snapshots enabled it stops the background snapshotter and
// persists the registry state — every resident dataset, current TTL
// clocks included — so a restart on the same directory comes back
// warm. Requests that were already admitted may still commit uploads
// or deletes after this flush: pair Drain with http.Server.Shutdown
// (which waits them out), then call FlushSnapshots once more so the
// store holds exactly what clients were acknowledged, and close the
// pool last — the order cmd/parseld uses.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainSnapshots()
}

// Close releases the kind pools the Server built itself (never the
// caller's Options pools). Call it after Drain and the HTTP server's
// shutdown — a closed pool fails queries still in flight.
func (s *Server) Close() {
	for _, f := range s.ownedClose {
		f()
	}
	s.ownedClose = nil
}

// Draining reports whether Drain was called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats snapshots the daemon's counters: pool (summed over the int64,
// float64 and string kind pools; MaxMachines is the per-kind
// capacity), server, aggregate simulated metrics, and the host latency
// histogram.
func (s *Server) Stats() parselclient.Stats {
	pst := parselclient.PoolStats{MaxMachines: s.pool.MaxMachines()}
	for _, k := range s.kinds {
		ps := k.stats()
		pst.Creates += ps.Creates
		pst.Hits += ps.Hits
		pst.Reshapes += ps.Reshapes
		pst.Waits += ps.Waits
		pst.Timeouts += ps.Timeouts
		pst.Resident += ps.Resident
		pst.Idle += ps.Idle
	}
	s.dsMu.Lock()
	s.sweepLocked(s.now())
	dst := s.dstats
	dst.Count = s.total.datasets
	dst.ResidentBytes = s.total.bytes
	dst.BudgetBytes = s.opts.MaxResidentBytes
	var tenants map[string]parselclient.TenantStats
	if s.tenancy {
		tenants = make(map[string]parselclient.TenantStats, len(s.tenantsByName))
		for name, cfg := range s.tenantsByName {
			u := s.byTenant[name]
			tenants[name] = parselclient.TenantStats{
				Datasets:         u.datasets,
				ResidentBytes:    u.bytes,
				MaxResidentBytes: cfg.MaxResidentBytes,
				MaxDatasets:      cfg.MaxDatasets,
				Requests:         u.requests,
				Rejected:         u.rejected,
			}
		}
	}
	s.dsMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	srv := s.srv
	srv.Inflight = int64(len(s.admit))
	srv.Draining = s.draining
	return parselclient.Stats{
		Pool:      pst,
		Server:    srv,
		Sim:       s.sim,
		Datasets:  dst,
		Tenants:   tenants,
		Snapshots: s.snapshotStats(),
		Latency:   wireHistogram(s.metrics.latency.Snapshot()),
	}
}

// queryHandler builds the handler for one /v1/<op> endpoint.
func (s *Server) queryHandler(op parsel.Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
				"queries are POST requests")
			return
		}
		if s.refuseIfDraining(w) {
			return
		}
		// Admission: bounded queue, constant-time rejection beyond it.
		release, ok := s.admitOrReject(w, r)
		if !ok {
			return
		}
		defer release()

		body, err := readBody(w, r, s.opts.Limits.MaxBodyBytes)
		if err != nil {
			s.writeRequestError(w, err)
			return
		}
		kind, err := sniffKeyKind(body, "")
		if err != nil {
			s.writeRequestError(w, err)
			return
		}
		s.kinds[kind].shardQuery(s, w, r, op, body, start)
	}
}

// runQueries is the one execution tail of every query endpoint: it runs
// qs through run under the request's admission deadline — against a
// resident dataset when onDataset is set, or against the request's
// shards on K's pool — and answers in the negotiated encoding. A single query (/v1/<op>,
// /query) answers its response, or its failure as an error status. A
// batch (/querymany) fans out across workers bounded by the pool's
// machine count and answers 200 with one result per item: per-item
// failures carry the same stable wire codes single queries map onto
// HTTP statuses, and one failing item never poisons the rest.
func runQueries[K parselclient.Key](s *Server, w http.ResponseWriter, r *http.Request, start time.Time, timeoutMS int64, run func(context.Context, parsel.Query) (parsel.Answer[K], error), onDataset bool, qs []parsel.Query, batch bool) {
	ctx, cancel := s.admissionContext(r, timeoutMS)
	defer cancel()
	tr := trackFrom(r.Context())
	if tr != nil {
		tr.kind = parselclient.KeyKindOf[K]()
		tr.markQueue()
		// observeCheckout adds atomically: a batch's workers all
		// attribute their pool waits to this one request.
		ctx = parsel.WithCheckoutObserver(ctx, tr.observeCheckout)
	}
	execStart := time.Now()
	results := make([]parselclient.QueryManyResultOf[K], len(qs))
	errs := make([]error, len(qs))
	fanout.Run(len(qs), s.pool.MaxMachines(), func(i int) {
		var a parsel.Answer[K]
		a, errs[i] = run(ctx, qs[i])
		if errs[i] == nil {
			results[i].ResponseOf = responseOf(qs[i].Op, a)
		}
	})
	if tr != nil {
		tr.exec = time.Since(execStart)
	}
	if !batch && errs[0] != nil {
		s.writeQueryError(w, errs[0])
		return
	}

	// One 200 response, one latency observation; the simulated metrics
	// and the dataset query counter aggregate per successful item, so a
	// batch reads exactly like the same queries posted one at a time.
	var okItems int64
	var agg parselclient.Report
	for i, err := range errs {
		if err != nil {
			_, code := errorStatus(err)
			results[i].Error = &parselclient.ErrorDetail{Code: code, Message: err.Error()}
			continue
		}
		okItems++
		agg.SimSeconds += results[i].Report.SimSeconds
		agg.Messages += results[i].Report.Messages
		agg.Bytes += results[i].Report.Bytes
	}
	if onDataset {
		s.dsMu.Lock()
		s.dstats.Queries += okItems
		s.dsMu.Unlock()
	}
	s.mu.Lock()
	s.srv.OK++
	s.sim.Queries += okItems
	s.sim.SimSeconds += agg.SimSeconds
	s.sim.Messages += agg.Messages
	s.sim.Bytes += agg.Bytes
	s.mu.Unlock()
	s.metrics.latency.Observe(time.Since(start).Seconds())
	if tr != nil {
		w.Header().Set(StagesHeader, tr.stagesValue())
	}

	// writeFrameResultsOf answers int64 and float64 results and reports
	// whether it did. String results have no frame encoding and are
	// answered as JSON regardless of Accept — negotiation is per
	// response Content-Type, so a framing client still decodes them.
	switch {
	case wantsFrame(r) && writeFrameResultsOf(w, results):
	case batch:
		writeJSON(w, http.StatusOK, parselclient.QueryManyResponseOf[K]{Results: results})
	default:
		writeJSON(w, http.StatusOK, &results[0].ResponseOf)
	}
}

// responseOf is the one conversion from an Answer to its wire
// response: the fields op answers and nothing else. The empty (k=0)
// multi-value answer stays a JSON [] rather than null.
func responseOf[K parselclient.Key](op parsel.Op, a parsel.Answer[K]) parselclient.ResponseOf[K] {
	resp := parselclient.ResponseOf[K]{KeyKind: parselclient.KeyKindField[K](), Report: parselclient.WireReport(a.Report)}
	switch {
	case op.Scalar():
		resp.Value = &a.Value
	case op == parsel.OpSummary:
		resp.Summary = &parselclient.SummaryOf[K]{
			Min: a.Summary.Min, Q1: a.Summary.Q1, Median: a.Summary.Median, Q3: a.Summary.Q3, Max: a.Summary.Max,
		}
	default:
		resp.Values = a.Values
		if resp.Values == nil {
			resp.Values = []K{}
		}
	}
	return resp
}

// wantsFrame reports whether the request's Accept header asks for the
// binary frame encoding of the result. Anything else (absent, */*,
// JSON) keeps the JSON default; error responses are JSON regardless.
func wantsFrame(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			if parselclient.IsFrameContentType(part) {
				return true
			}
		}
	}
	return false
}

// writeFrameResultsOf writes int64 or float64 results as a binary
// frame and reports true; other kinds have no frame encoding and are
// left to the caller.
func writeFrameResultsOf[K parselclient.Key](w http.ResponseWriter, results []parselclient.QueryManyResultOf[K]) bool {
	switch rs := any(results).(type) {
	case []parselclient.QueryManyResultOf[int64]:
		writeFrame(w, rs)
	case []parselclient.QueryManyResultOf[float64]:
		writeFrame(w, rs)
	default:
		return false
	}
	return true
}

// writeFrame writes results as a binary frame, one entry per item.
// Non-empty values move into each entry's values section (served from
// their memory) and out of its JSON metadata; empty or absent values
// stay in the metadata, so the []-versus-null distinction — and with it
// bit-identity to the JSON encoding — survives the frame. A success
// entry's metadata marshals exactly like a bare response (the error
// field is omitted when nil).
func writeFrame[K snapshot.FixedKey](w http.ResponseWriter, results []parselclient.QueryManyResultOf[K]) {
	entries := make([]snapshot.FrameEntry[K], len(results))
	for i := range results {
		item := results[i]
		if len(item.Values) > 0 {
			entries[i].Values = item.Values
			item.Values = nil
		}
		meta, err := json.Marshal(item)
		if err != nil {
			writeError(w, http.StatusInternalServerError, parselclient.CodeInternal,
				fmt.Sprintf("encode result %d: %v", i, err))
			return
		}
		entries[i].Meta = meta
	}
	fr := snapshot.NewFrameReader(entries)
	w.Header().Set("Content-Type", parselclient.ContentTypeFrame)
	w.Header().Set("Content-Length", strconv.FormatInt(fr.Size(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = fr.WriteTo(w)
}

// readBody drains the request body under the byte limit, mapping an
// overrun to the structured too_large error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, parseErrf(parselclient.CodeTooLarge,
				"body exceeds %d bytes", mbe.Limit)
		}
		return nil, parseErrf(parselclient.CodeBadJSON, "read body: %v", err)
	}
	return body, nil
}

// admissionContext derives the admission deadline: the request's
// timeout_ms if given, else the server default — further bounded by
// the client's propagated X-Parsel-Deadline budget (a caller about to
// give up must never occupy a machine), capped by MaxTimeout, and
// composed with the connection's own context so a vanished client
// stops waiting for a machine.
func (s *Server) admissionContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if hd := headerDeadline(r); hd > 0 && hd < d {
		d = hd
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// headerDeadline reads the client's remaining deadline budget from the
// propagation header, in milliseconds; absent or malformed values mean
// no bound (the header is an optimization, never a validation surface).
func headerDeadline(r *http.Request) time.Duration {
	v := r.Header.Get(parselclient.DeadlineHeader)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// errorStatus maps engine/pool errors onto HTTP status + wire code. The
// daemon's contract: a typed library error crosses the wire with a
// stable code the client maps back to the same typed error.
func errorStatus(err error) (int, parselclient.Code) {
	switch {
	case errors.Is(err, parsel.ErrPoolTimeout):
		return http.StatusTooManyRequests, parselclient.CodePoolTimeout
	case errors.Is(err, parsel.ErrPoolClosed):
		return http.StatusServiceUnavailable, parselclient.CodeShuttingDown
	case errors.Is(err, parsel.ErrDatasetClosed):
		// The dataset was deleted or evicted between lookup and query
		// start: from the wire's perspective it no longer exists.
		return http.StatusNotFound, parselclient.CodeDatasetNotFound
	case errors.Is(err, parsel.ErrRankRange):
		return http.StatusBadRequest, parselclient.CodeRankRange
	case errors.Is(err, parsel.ErrBadQuantile):
		return http.StatusBadRequest, parselclient.CodeBadQuantile
	case errors.Is(err, parsel.ErrNoData):
		return http.StatusBadRequest, parselclient.CodeNoData
	case errors.Is(err, parsel.ErrNoShards):
		return http.StatusBadRequest, parselclient.CodeNoShards
	default:
		return http.StatusInternalServerError, parselclient.CodeInternal
	}
}

// writeQueryError reports a pool/engine failure.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	s.countError(status, code)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, code, err.Error())
}

// writeRequestError reports a decode/validation failure.
func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	var pe *ParseError
	if !errors.As(err, &pe) {
		pe = &ParseError{Code: parselclient.CodeInternal, Msg: err.Error()}
	}
	status := http.StatusBadRequest
	if pe.Code == parselclient.CodeTooLarge {
		status = http.StatusRequestEntityTooLarge
	}
	s.countError(status, pe.Code)
	writeError(w, status, pe.Code, pe.Msg)
}

// countError attributes a failure to the stats counters.
func (s *Server) countError(status int, code parselclient.Code) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case code == parselclient.CodePoolTimeout:
		s.srv.Timeouts++
	case code == parselclient.CodeQueueFull:
		s.srv.Rejected++
	case status >= 500:
		s.srv.ServerErrors++
	default:
		s.srv.ClientErrors++
	}
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
			"stats is a GET request")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleTenantReload serves POST /v1/admin/tenants/reload: reread the
// tenant configuration through Options.TenantSource and swap it in via
// ReloadTenants — token rotation and budget changes without a restart
// (the HTTP twin of cmd/parseld's SIGHUP). Failures are the daemon's
// own configuration being unreadable or invalid, never the request's,
// so they answer 500 internal with the detail.
func (s *Server) handleTenantReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
			"tenant reload is a POST request")
		return
	}
	tenants, err := s.opts.TenantSource()
	if err != nil {
		s.countError(http.StatusInternalServerError, parselclient.CodeInternal)
		writeError(w, http.StatusInternalServerError, parselclient.CodeInternal,
			fmt.Sprintf("read tenant source: %v", err))
		return
	}
	if err := s.ReloadTenants(tenants); err != nil {
		s.countError(http.StatusInternalServerError, parselclient.CodeInternal)
		writeError(w, http.StatusInternalServerError, parselclient.CodeInternal, err.Error())
		return
	}
	s.log.Info("serve: tenant configuration reloaded", "tenants", len(tenants))
	writeJSON(w, http.StatusOK, parselclient.TenantReloadResult{Tenants: len(tenants)})
}

// handleHealth serves GET /healthz, the three-state health machine,
// each state on its own status code so probes can branch without
// parsing the body:
//
//	200 ok       — serving normally
//	207 degraded — still serving every endpoint, but a background
//	               obligation is failing (snapshot persistence); a load
//	               balancer can keep routing, an operator should look
//	503 draining — graceful shutdown begun; stop routing here
//
// Degraded clears by itself the moment a snapshot write lands again.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, parselclient.CodeShuttingDown,
			"daemon is draining")
		return
	}
	if st := s.snapshotStats(); st.Degraded {
		writeJSON(w, http.StatusMultiStatus, parselclient.HealthStatus{
			Status: parselclient.HealthDegraded,
			Reason: "snapshot persistence is failing; resident data is serving but not durable",
		})
		return
	}
	writeJSON(w, http.StatusOK, parselclient.HealthStatus{Status: parselclient.HealthOK})
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes the structured error body.
func writeError(w http.ResponseWriter, status int, code parselclient.Code, msg string) {
	writeJSON(w, status, parselclient.ErrorBody{
		Error: parselclient.ErrorDetail{Code: code, Message: msg},
	})
}
