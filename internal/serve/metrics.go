package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parsel/internal/obs"
	"parsel/parselclient"
)

// RequestIDHeader is the request-correlation header: accepted from the
// client (parselclient stamps one on every attempt), generated when
// absent, echoed on every response, and attached to every structured
// log line the request emits.
const RequestIDHeader = "X-Parsel-Request-Id"

// StagesHeader carries the per-request stage timing breakdown on
// successful query responses: "queue_ns=…;checkout_ns=…;execute_ns=…"
// (encode time is not included — the header is written before the
// body). The same stages, encode included, feed the
// parsel_query_stage_seconds histogram.
const StagesHeader = "X-Parsel-Stages"

// latencyBounds are the histogram bucket upper bounds in seconds,
// roughly log-spaced from 100us to 10s — the range a selection query
// can plausibly take on a loaded host. Observations above the last
// bound land only in the implicit +Inf bucket (the total count).
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// serverMetrics is the Server's obs instrument set behind GET /metrics.
//
// Two kinds of series live here. The live instruments (requests,
// latency, stages) are updated on the request path and are the same
// backing store /v1/stats renders its latency histogram from — the two
// endpoints cannot disagree. Everything else is filled at scrape time
// from the Stats() snapshot (fill), so the daemon's existing counters
// stay the single source of truth and no request-path code does double
// bookkeeping.
type serverMetrics struct {
	reg *obs.Registry

	// Live request-path instruments.
	requests *obs.CounterVec   // parsel_requests_total{endpoint,kind,code}
	latency  *obs.Histogram    // parsel_query_duration_seconds
	stages   *obs.HistogramVec // parsel_query_stage_seconds{stage}

	// Scrape-time mirrors of the Stats() snapshot.
	poolCreates, poolHits, poolReshapes, poolWaits, poolTimeouts *obs.Counter
	poolResident, poolIdle, poolMax                              *obs.Gauge
	admitInflight, admitCapacity, draining                       *obs.Gauge
	srvOK, srvClientErr, srvServerErr, srvTimeouts, srvRejected  *obs.Counter
	srvPanics                                                    *obs.Counter
	simQueries, simMessages, simBytes                            *obs.Counter
	simSeconds                                                   *obs.Gauge
	dsCount, dsBytes, dsBudget                                   *obs.Gauge
	dsUploads, dsReplaced, dsDeletes, dsExpired                  *obs.Counter
	dsRejected, dsNotFound, dsQueries, dsExports                 *obs.Counter
	snapRestored, snapSkipped, snapQuarantined                   *obs.Counter
	snapPersists, snapPersistErrors                              *obs.Counter
	snapBytes, snapDirty, snapDegraded                           *obs.Gauge
	tenantDatasets, tenantBytes                                  *obs.GaugeVec
	tenantRequests, tenantRejected                               *obs.CounterVec
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.CounterVec("parsel_requests_total",
			"Requests finished, by endpoint (dataset ids collapsed to {id}), key kind and HTTP status code.",
			"endpoint", "kind", "code"),
		latency: r.Histogram("parsel_query_duration_seconds",
			"End-to-end latency of successfully served queries — the same observations /v1/stats reports as latency.",
			latencyBounds),
		stages: r.HistogramVec("parsel_query_stage_seconds",
			"Per-stage latency of query requests: queue (admission+parse), checkout (pool semaphore wait), execute (simulation), encode (response write).",
			latencyBounds, "stage"),

		poolCreates:   r.Counter("parsel_pool_creates_total", "Selectors built by the pool."),
		poolHits:      r.Counter("parsel_pool_hits_total", "Checkouts served by an idle same-shape Selector."),
		poolReshapes:  r.Counter("parsel_pool_reshapes_total", "Checkouts that repurposed an idle Selector of another shape."),
		poolWaits:     r.Counter("parsel_pool_waits_total", "Checkouts that blocked for a free machine slot."),
		poolTimeouts:  r.Counter("parsel_pool_timeouts_total", "Checkouts abandoned because the admission deadline expired."),
		poolResident:  r.Gauge("parsel_pool_resident", "Resident Selectors, idle or checked out."),
		poolIdle:      r.Gauge("parsel_pool_idle", "Idle resident Selectors."),
		poolMax:       r.Gauge("parsel_pool_max_machines", "Configured machine capacity of the int64 pool."),
		admitInflight: r.Gauge("parsel_admission_inflight", "Requests currently holding an admission token."),
		admitCapacity: r.Gauge("parsel_admission_capacity", "Admission tokens (MaxMachines + QueueDepth)."),
		draining:      r.Gauge("parsel_draining", "1 while graceful shutdown is in progress."),

		srvOK:        r.Counter("parsel_server_ok_total", "200 query responses (ServerStats.OK)."),
		srvClientErr: r.Counter("parsel_server_client_errors_total", "4xx responses other than admission failures."),
		srvServerErr: r.Counter("parsel_server_server_errors_total", "5xx responses."),
		srvTimeouts:  r.Counter("parsel_server_pool_timeouts_total", "429 pool_timeout responses."),
		srvRejected:  r.Counter("parsel_server_rejected_total", "429 queue_full admission rejections."),
		srvPanics:    r.Counter("parsel_server_panics_total", "Handler panics caught by the recovery middleware."),

		simQueries:  r.Counter("parsel_sim_queries_total", "Queries aggregated into the simulated-machine metrics."),
		simSeconds:  r.Gauge("parsel_sim_seconds", "Simulated machine-seconds across served queries."),
		simMessages: r.Counter("parsel_sim_messages_total", "Simulated messages across served queries."),
		simBytes:    r.Counter("parsel_sim_bytes_total", "Simulated bytes across served queries."),

		dsCount:    r.Gauge("parsel_datasets", "Resident datasets."),
		dsBytes:    r.Gauge("parsel_dataset_resident_bytes", "Total resident bytes of all datasets."),
		dsBudget:   r.Gauge("parsel_dataset_budget_bytes", "Configured resident-bytes budget."),
		dsUploads:  r.Counter("parsel_dataset_uploads_total", "Accepted dataset uploads, replacements included."),
		dsReplaced: r.Counter("parsel_dataset_replaced_total", "Uploads that overwrote an existing id."),
		dsDeletes:  r.Counter("parsel_dataset_deletes_total", "Explicit dataset deletions."),
		dsExpired:  r.Counter("parsel_dataset_expired_total", "TTL evictions."),
		dsRejected: r.Counter("parsel_dataset_rejected_total", "Uploads refused for a resident budget (413)."),
		dsNotFound: r.Counter("parsel_dataset_not_found_total", "Queries or deletes addressed at absent dataset ids."),
		dsQueries:  r.Counter("parsel_dataset_queries_total", "Dataset-path queries served OK."),
		dsExports:  r.Counter("parsel_dataset_exports_total", "Snapshot-stream exports served OK."),

		snapRestored:      r.Counter("parsel_snapshot_restored_total", "Datasets recovered from snapshots at startup."),
		snapSkipped:       r.Counter("parsel_snapshot_restore_skipped_total", "Manifest entries not recovered at startup."),
		snapQuarantined:   r.Counter("parsel_snapshot_quarantined_total", "Corrupt snapshot files renamed aside."),
		snapPersists:      r.Counter("parsel_snapshot_persists_total", "Snapshot writes."),
		snapPersistErrors: r.Counter("parsel_snapshot_persist_errors_total", "Snapshot writes that failed."),
		snapBytes:         r.Gauge("parsel_snapshot_bytes", "On-disk size of all live snapshot files."),
		snapDirty:         r.Gauge("parsel_snapshot_dirty", "Datasets whose latest state is not yet on disk."),
		snapDegraded:      r.Gauge("parsel_snapshot_degraded", "1 while snapshot persistence is failing."),

		tenantDatasets: r.GaugeVec("parsel_tenant_datasets", "Resident datasets per tenant.", "tenant"),
		tenantBytes:    r.GaugeVec("parsel_tenant_resident_bytes", "Resident bytes per tenant.", "tenant"),
		tenantRequests: r.CounterVec("parsel_tenant_requests_total", "Authenticated requests per tenant.", "tenant"),
		tenantRejected: r.CounterVec("parsel_tenant_rejected_total", "Budget/quota upload rejections per tenant (413 tenant_budget).", "tenant"),
	}
	return m
}

// fill mirrors one Stats() snapshot into the scrape-time series. Called
// by the /metrics handler just before rendering, so the exposition and
// /v1/stats describe the same instant without the request path paying
// for two ledgers.
func (m *serverMetrics) fill(st parselclient.Stats, admitCapacity int) {
	m.poolCreates.Set(st.Pool.Creates)
	m.poolHits.Set(st.Pool.Hits)
	m.poolReshapes.Set(st.Pool.Reshapes)
	m.poolWaits.Set(st.Pool.Waits)
	m.poolTimeouts.Set(st.Pool.Timeouts)
	m.poolResident.Set(float64(st.Pool.Resident))
	m.poolIdle.Set(float64(st.Pool.Idle))
	m.poolMax.Set(float64(st.Pool.MaxMachines))
	m.admitInflight.Set(float64(st.Server.Inflight))
	m.admitCapacity.Set(float64(admitCapacity))
	m.draining.Set(boolGauge(st.Server.Draining))

	m.srvOK.Set(st.Server.OK)
	m.srvClientErr.Set(st.Server.ClientErrors)
	m.srvServerErr.Set(st.Server.ServerErrors)
	m.srvTimeouts.Set(st.Server.Timeouts)
	m.srvRejected.Set(st.Server.Rejected)
	m.srvPanics.Set(st.Server.Panics)

	m.simQueries.Set(st.Sim.Queries)
	m.simSeconds.Set(st.Sim.SimSeconds)
	m.simMessages.Set(st.Sim.Messages)
	m.simBytes.Set(st.Sim.Bytes)

	m.dsCount.Set(float64(st.Datasets.Count))
	m.dsBytes.Set(float64(st.Datasets.ResidentBytes))
	m.dsBudget.Set(float64(st.Datasets.BudgetBytes))
	m.dsUploads.Set(st.Datasets.Uploads)
	m.dsReplaced.Set(st.Datasets.Replaced)
	m.dsDeletes.Set(st.Datasets.Deletes)
	m.dsExpired.Set(st.Datasets.Expired)
	m.dsRejected.Set(st.Datasets.Rejected)
	m.dsNotFound.Set(st.Datasets.NotFound)
	m.dsQueries.Set(st.Datasets.Queries)
	m.dsExports.Set(st.Datasets.Exports)

	m.snapRestored.Set(st.Snapshots.Restored)
	m.snapSkipped.Set(st.Snapshots.RestoreSkipped)
	m.snapQuarantined.Set(st.Snapshots.Quarantined)
	m.snapPersists.Set(st.Snapshots.Persists)
	m.snapPersistErrors.Set(st.Snapshots.PersistErrors)
	m.snapBytes.Set(float64(st.Snapshots.SnapshotBytes))
	m.snapDirty.Set(float64(st.Snapshots.Dirty))
	m.snapDegraded.Set(boolGauge(st.Snapshots.Degraded))

	for name, ts := range st.Tenants {
		m.tenantDatasets.With(name).Set(float64(ts.Datasets))
		m.tenantBytes.With(name).Set(float64(ts.ResidentBytes))
		m.tenantRequests.With(name).Set(ts.Requests)
		m.tenantRejected.With(name).Set(ts.Rejected)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// wireHistogram renders an obs histogram snapshot in the /v1/stats wire
// shape. Both endpoints read the same instrument, so their counts and
// sums agree by construction.
func wireHistogram(snap obs.HistSnapshot) parselclient.Histogram {
	out := parselclient.Histogram{
		Count:      snap.Count,
		SumSeconds: snap.Sum,
		Buckets:    make([]parselclient.Bucket, len(snap.Bounds)),
	}
	for i, le := range snap.Bounds {
		out.Buckets[i] = parselclient.Bucket{LE: le, Count: snap.Cumulative[i]}
	}
	return out
}

// handleMetrics serves GET /metrics: the Prometheus text exposition.
// Unauthenticated, like /healthz — scrapers sit beside load balancers,
// not behind tenant tokens.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
			"metrics is a GET request")
		return
	}
	s.metrics.fill(s.Stats(), cap(s.admit))
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = s.metrics.reg.WriteTo(w)
}

// reqTrack follows one request through the middleware stack: its
// correlation id, who and what it turned out to be (tenant, kind), and
// the per-stage clock marks. All fields are written by the request's
// own goroutine except checkout, which querymany fan-out workers add to
// concurrently.
type reqTrack struct {
	id     string
	start  time.Time
	tenant string
	kind   string

	staged   bool // the query path recorded stage marks
	queue    time.Duration
	exec     time.Duration
	checkout atomic.Int64 // ns
}

// trackKey carries the reqTrack through the request context.
type trackKey struct{}

// trackFrom returns the request's reqTrack, or nil outside the
// middleware stack (direct handler tests).
func trackFrom(ctx context.Context) *reqTrack {
	tr, _ := ctx.Value(trackKey{}).(*reqTrack)
	return tr
}

// observeCheckout is the parsel.WithCheckoutObserver hook: pool
// semaphore wait attributed to this request.
func (tr *reqTrack) observeCheckout(wait time.Duration) {
	tr.checkout.Add(int64(wait))
}

// markQueue closes the queue stage (admission wait, body read, parse)
// and declares the stage marks live.
func (tr *reqTrack) markQueue() {
	tr.queue = time.Since(tr.start)
	tr.staged = true
}

// stagesValue renders the StagesHeader value from the marks so far
// (encode has not happened yet when headers are written).
func (tr *reqTrack) stagesValue() string {
	checkout := time.Duration(tr.checkout.Load())
	execute := max(tr.exec-checkout, 0)
	return fmt.Sprintf("queue_ns=%d;checkout_ns=%d;execute_ns=%d",
		tr.queue.Nanoseconds(), checkout.Nanoseconds(), execute.Nanoseconds())
}

// finishRequest closes the books on one request: the requests_total
// series, the stage histograms (query paths only), and the Debug-level
// access log line.
func (s *Server) finishRequest(tr *reqTrack, code int, r *http.Request) {
	if code == 0 {
		// The handler wrote nothing and did not panic; net/http would
		// answer 200 with an empty body.
		code = http.StatusOK
	}
	total := time.Since(tr.start)
	endpoint := endpointLabel(r.URL.Path)
	s.metrics.requests.With(endpoint, kindLabel(tr.kind), strconv.Itoa(code)).Inc()
	if tr.staged {
		checkout := time.Duration(tr.checkout.Load())
		execute := max(tr.exec-checkout, 0)
		encode := max(total-tr.queue-tr.exec, 0)
		s.metrics.stages.With("queue").Observe(tr.queue.Seconds())
		s.metrics.stages.With("checkout").Observe(checkout.Seconds())
		s.metrics.stages.With("execute").Observe(execute.Seconds())
		s.metrics.stages.With("encode").Observe(encode.Seconds())
	}
	s.log.Debug("serve: request",
		"request_id", tr.id,
		"method", r.Method,
		"endpoint", endpoint,
		"path", r.URL.Path,
		"code", code,
		"kind", tr.kind,
		"tenant", tr.tenant,
		"duration_us", total.Microseconds(),
	)
}

// logShed emits the Warn-level structured record for a load-shedding
// refusal (429 queue_full, 413 resident_budget/tenant_budget): who was
// turned away, where, and why.
func (s *Server) logShed(r *http.Request, code int, reason parselclient.Code, detail string) {
	var id, tenant string
	if tr := trackFrom(r.Context()); tr != nil {
		id, tenant = tr.id, tr.tenant
	}
	s.log.Warn("serve: request shed",
		"request_id", id,
		"endpoint", endpointLabel(r.URL.Path),
		"tenant", tenant,
		"code", code,
		"reason", string(reason),
		"detail", detail,
	)
}

// endpointLabel collapses a request path into a bounded label space:
// fixed endpoints pass through, per-dataset paths collapse their id
// segment to {id}, anything unknown becomes "other" (it answered 404;
// per-path series for scanner noise would grow without bound).
func endpointLabel(path string) string {
	if _, ok := opOfPath(path); ok {
		return path
	}
	switch path {
	case "/v1/stats", "/healthz", "/metrics", "/v1/admin/tenants/reload":
		return path
	}
	const pfx = "/v1/datasets/"
	if rest, ok := strings.CutPrefix(path, pfx); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch suffix := rest[i:]; suffix {
			case "/query", "/querymany", "/snapshot":
				return pfx + "{id}" + suffix
			}
			return "other"
		}
		return pfx + "{id}"
	}
	return "other"
}

// kindLabel maps the tracked key kind onto its label value ("none"
// for requests that never reached a kind-typed code path).
func kindLabel(kind string) string {
	if kind == "" {
		return "none"
	}
	return kind
}
