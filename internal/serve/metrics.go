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

// serverMetrics holds the live request-path instruments behind GET
// /metrics. Each is the only ledger of its fact, updated where a
// request finishes; /v1/stats renders its latency histogram from the
// same instrument, so the two endpoints cannot disagree. Everything
// else on /metrics is sampled per scrape from one Stats() snapshot
// through statTable.
type serverMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // parsel_requests_total{endpoint,kind,code}
	latency  *obs.Histogram    // parsel_query_duration_seconds
	stages   *obs.HistogramVec // parsel_query_stage_seconds{stage}
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	return &serverMetrics{
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
	}
}

// statView is what one scrape samples: the Stats snapshot, the
// admission capacity /v1/stats does not carry, and — while a per-tenant
// row is sampled — the tenant block at hand.
type statView struct {
	parselclient.Stats
	admitCapacity int
	tenant        parselclient.TenantStats
}

// statRow binds one numeric or boolean fact of a statView to its
// exposition family: name, TYPE, label (tenant rows render one series
// per tenant block) and HELP.
type statRow struct {
	name, kind, label, help string
	get                     func(*statView) any
}

const (
	counter     = "counter"
	gauge       = "gauge"
	unlabeled   = ""
	tenantLabel = "tenant"
)

// statTable is every /metrics family sampled from the Stats snapshot,
// one row per fact. The pool rows sum the int64, float64 and string
// kind pools; max_machines is the per-kind capacity.
var statTable = []statRow{
	{"parsel_pool_creates_total", counter, unlabeled, "Selectors built by the pool.", func(v *statView) any { return v.Pool.Creates }},
	{"parsel_pool_hits_total", counter, unlabeled, "Checkouts served by an idle same-shape Selector.", func(v *statView) any { return v.Pool.Hits }},
	{"parsel_pool_reshapes_total", counter, unlabeled, "Checkouts that repurposed an idle Selector of another shape.", func(v *statView) any { return v.Pool.Reshapes }},
	{"parsel_pool_waits_total", counter, unlabeled, "Checkouts that blocked for a free machine slot.", func(v *statView) any { return v.Pool.Waits }},
	{"parsel_pool_timeouts_total", counter, unlabeled, "Checkouts abandoned because the admission deadline expired.", func(v *statView) any { return v.Pool.Timeouts }},
	{"parsel_pool_resident", gauge, unlabeled, "Resident Selectors, idle or checked out.", func(v *statView) any { return v.Pool.Resident }},
	{"parsel_pool_idle", gauge, unlabeled, "Idle resident Selectors.", func(v *statView) any { return v.Pool.Idle }},
	{"parsel_pool_max_machines", gauge, unlabeled, "Configured machine capacity of the int64 pool.", func(v *statView) any { return v.Pool.MaxMachines }},
	{"parsel_admission_inflight", gauge, unlabeled, "Requests currently holding an admission token.", func(v *statView) any { return v.Server.Inflight }},
	{"parsel_admission_capacity", gauge, unlabeled, "Admission tokens (MaxMachines + QueueDepth).", func(v *statView) any { return v.admitCapacity }},
	{"parsel_draining", gauge, unlabeled, "1 while graceful shutdown is in progress.", func(v *statView) any { return v.Server.Draining }},

	{"parsel_server_requests_total", counter, unlabeled, "Query requests received, whatever their outcome (ServerStats.Requests).", func(v *statView) any { return v.Server.Requests }},
	{"parsel_server_ok_total", counter, unlabeled, "200 query responses (ServerStats.OK).", func(v *statView) any { return v.Server.OK }},
	{"parsel_server_client_errors_total", counter, unlabeled, "4xx responses other than admission failures.", func(v *statView) any { return v.Server.ClientErrors }},
	{"parsel_server_server_errors_total", counter, unlabeled, "5xx responses.", func(v *statView) any { return v.Server.ServerErrors }},
	{"parsel_server_pool_timeouts_total", counter, unlabeled, "429 pool_timeout responses.", func(v *statView) any { return v.Server.Timeouts }},
	{"parsel_server_rejected_total", counter, unlabeled, "429 queue_full admission rejections.", func(v *statView) any { return v.Server.Rejected }},
	{"parsel_server_panics_total", counter, unlabeled, "Handler panics caught by the recovery middleware.", func(v *statView) any { return v.Server.Panics }},

	{"parsel_sim_queries_total", counter, unlabeled, "Queries aggregated into the simulated-machine metrics.", func(v *statView) any { return v.Sim.Queries }},
	{"parsel_sim_seconds", gauge, unlabeled, "Simulated machine-seconds across served queries.", func(v *statView) any { return v.Sim.SimSeconds }},
	{"parsel_sim_messages_total", counter, unlabeled, "Simulated messages across served queries.", func(v *statView) any { return v.Sim.Messages }},
	{"parsel_sim_bytes_total", counter, unlabeled, "Simulated bytes across served queries.", func(v *statView) any { return v.Sim.Bytes }},

	{"parsel_datasets", gauge, unlabeled, "Resident datasets.", func(v *statView) any { return v.Datasets.Count }},
	{"parsel_dataset_resident_bytes", gauge, unlabeled, "Total resident bytes of all datasets.", func(v *statView) any { return v.Datasets.ResidentBytes }},
	{"parsel_dataset_budget_bytes", gauge, unlabeled, "Configured resident-bytes budget.", func(v *statView) any { return v.Datasets.BudgetBytes }},
	{"parsel_dataset_uploads_total", counter, unlabeled, "Accepted dataset uploads, replacements included.", func(v *statView) any { return v.Datasets.Uploads }},
	{"parsel_dataset_replaced_total", counter, unlabeled, "Uploads that overwrote an existing id.", func(v *statView) any { return v.Datasets.Replaced }},
	{"parsel_dataset_deletes_total", counter, unlabeled, "Explicit dataset deletions.", func(v *statView) any { return v.Datasets.Deletes }},
	{"parsel_dataset_expired_total", counter, unlabeled, "TTL evictions.", func(v *statView) any { return v.Datasets.Expired }},
	{"parsel_dataset_rejected_total", counter, unlabeled, "Uploads refused for a resident budget (413).", func(v *statView) any { return v.Datasets.Rejected }},
	{"parsel_dataset_not_found_total", counter, unlabeled, "Queries or deletes addressed at absent dataset ids.", func(v *statView) any { return v.Datasets.NotFound }},
	{"parsel_dataset_queries_total", counter, unlabeled, "Dataset-path queries served OK.", func(v *statView) any { return v.Datasets.Queries }},
	{"parsel_dataset_exports_total", counter, unlabeled, "Snapshot-stream exports served OK.", func(v *statView) any { return v.Datasets.Exports }},

	{"parsel_snapshot_enabled", gauge, unlabeled, "1 when a snapshot directory is configured.", func(v *statView) any { return v.Snapshots.Enabled }},
	{"parsel_snapshot_restored_total", counter, unlabeled, "Datasets recovered from snapshots at startup.", func(v *statView) any { return v.Snapshots.Restored }},
	{"parsel_snapshot_restore_skipped_total", counter, unlabeled, "Manifest entries not recovered at startup.", func(v *statView) any { return v.Snapshots.RestoreSkipped }},
	{"parsel_snapshot_quarantined_total", counter, unlabeled, "Corrupt snapshot files renamed aside.", func(v *statView) any { return v.Snapshots.Quarantined }},
	{"parsel_snapshot_persists_total", counter, unlabeled, "Snapshot writes.", func(v *statView) any { return v.Snapshots.Persists }},
	{"parsel_snapshot_persist_errors_total", counter, unlabeled, "Snapshot writes that failed.", func(v *statView) any { return v.Snapshots.PersistErrors }},
	{"parsel_snapshot_bytes", gauge, unlabeled, "On-disk size of all live snapshot files.", func(v *statView) any { return v.Snapshots.SnapshotBytes }},
	{"parsel_snapshot_dirty", gauge, unlabeled, "Datasets whose latest state is not yet on disk.", func(v *statView) any { return v.Snapshots.Dirty }},
	{"parsel_snapshot_last_persist_unix_ms", gauge, unlabeled, "Unix time in milliseconds of the last successful snapshot write; 0 before the first.", func(v *statView) any { return v.Snapshots.LastPersistUnixMS }},
	{"parsel_snapshot_degraded", gauge, unlabeled, "1 while snapshot persistence is failing.", func(v *statView) any { return v.Snapshots.Degraded }},

	{"parsel_tenant_datasets", gauge, tenantLabel, "Resident datasets per tenant.", func(v *statView) any { return v.tenant.Datasets }},
	{"parsel_tenant_resident_bytes", gauge, tenantLabel, "Resident bytes per tenant.", func(v *statView) any { return v.tenant.ResidentBytes }},
	{"parsel_tenant_max_resident_bytes", gauge, tenantLabel, "Resident-bytes budget per tenant; 0 means only the global budget applies.", func(v *statView) any { return v.tenant.MaxResidentBytes }},
	{"parsel_tenant_max_datasets", gauge, tenantLabel, "Dataset quota per tenant; 0 means no per-tenant count limit.", func(v *statView) any { return v.tenant.MaxDatasets }},
	{"parsel_tenant_requests_total", counter, tenantLabel, "Authenticated requests per tenant.", func(v *statView) any { return v.tenant.Requests }},
	{"parsel_tenant_rejected_total", counter, tenantLabel, "Budget/quota upload rejections per tenant (413 tenant_budget).", func(v *statView) any { return v.tenant.Rejected }},
}

// sample renders every statTable row from the one snapshot in v. A
// tenant removed by reload is absent from the snapshot, so its series
// leave /metrics with it.
func (v *statView) sample() []obs.Sampled {
	fams := make([]obs.Sampled, len(statTable))
	for i, row := range statTable {
		f := obs.Sampled{Name: row.name, Help: row.help, Kind: row.kind}
		if row.label == unlabeled {
			f.Samples = []obs.Sample{{Value: statValue(row.get(v))}}
		} else {
			f.Labels = []string{row.label}
			for name, ts := range v.Tenants {
				v.tenant = ts
				f.Samples = append(f.Samples, obs.Sample{Labels: []string{name}, Value: statValue(row.get(v))})
			}
		}
		fams[i] = f
	}
	return fams
}

// statValue converts one stats field to its sample value.
func statValue(x any) float64 {
	switch x := x.(type) {
	case int64:
		return float64(x)
	case int:
		return float64(x)
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("serve: stats field of type %T has no sample value", x))
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
	v := statView{Stats: s.Stats(), admitCapacity: cap(s.admit)}
	w.Header().Set("Content-Type", obs.ContentType)
	// A failed write means the scraper hung up; there is no one to tell.
	_ = s.metrics.reg.Write(w, v.sample())
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
