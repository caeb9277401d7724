// Package parselclient is the Go client for parseld, the selection
// daemon, and the canonical definition of its JSON wire format: the
// daemon's handlers (parsel/internal/serve) marshal and unmarshal these
// same types, so client and server cannot drift.
//
// # Wire format
//
// Every query is an HTTP POST of a JSON Request to one of the
// endpoints:
//
//	/v1/select     {"shards": [[...]], "rank": R}
//	/v1/median     {"shards": [[...]]}
//	/v1/quantile   {"shards": [[...]], "q": Q}
//	/v1/quantiles  {"shards": [[...]], "qs": [Q...]}
//	/v1/ranks      {"shards": [[...]], "ranks": [R...]}
//	/v1/topk       {"shards": [[...]], "k": K}
//	/v1/bottomk    {"shards": [[...]], "k": K}
//	/v1/summary    {"shards": [[...]]}
//
// Resident datasets restore the paper's operating model — the keys are
// already distributed, queries amortize over them:
//
//	PUT    /v1/datasets/{id}        {"shards": [[...]]}    upload once
//	POST   /v1/datasets/{id}/query  {"kind": "select", "rank": R, ...}
//	GET    /v1/datasets/{id}        (info)
//	DELETE /v1/datasets/{id}
//
// An upload ships the shards once into resident per-processor storage;
// every later query carries parameters only (see DatasetQuery — same
// field rules as the shard-carrying endpoints, keyed by "kind") and is
// answered bit-identically to posting the same shards per query.
// Datasets are TTL-evicted when idle and accounted against a
// resident-bytes budget: an upload that would exceed it is refused with
// 413 "resident_budget" in constant time, never by evicting live data.
//
// "shards" is the sharded population: one array of int64 keys per
// simulated processor, exactly as the library's [][]K entry points take
// it. Any request may carry "timeout_ms", a deadline on pool admission:
// if every simulated machine is still busy after that long, the daemon
// answers 429 with code "pool_timeout" instead of queueing forever. A
// query that has started always runs to completion.
//
// Successful queries return 200 with a ResponseOf: the scalar endpoints
// fill "value", the multi-value endpoints "values" (aligned with the
// request), summary fills "summary", and every response carries
// "report" — the full simulated-machine report (simulated seconds,
// iterations, message and byte totals), bit-identical to what the
// in-process library returns for the same query.
//
// Failures return a JSON ErrorBody with a stable machine-readable code
// (see the Code constants) and an HTTP status: 400 for invalid
// requests, 404/405 for routing mistakes, 413 for oversized bodies,
// 429 for admission failures (queue full or pool timeout), 503 while
// draining, 500 for internal faults.
package parselclient

import (
	"parsel"
	"parsel/internal/snapshot"
)

// Key is the set of key kinds the daemon serves: one kind-dispatched
// pool per kind behind a single process. int64 is the historical
// default — requests that carry no "key_kind" field and no
// X-Parsel-Kind header are int64 requests, so pre-multi-kind clients
// keep working unchanged.
type Key interface {
	int64 | float64 | string
}

// Key kind names carried in the wire's "key_kind" fields and the
// X-Parsel-Kind header.
const (
	KeyKindInt64   = "int64"
	KeyKindFloat64 = "float64"
	KeyKindString  = "string"
)

// KindHeader is the request header naming the key kind of an upload
// body (JSON or binary frame). The JSON "key_kind" body field is
// equivalent; when both are present they must agree. Binary frame
// uploads name their kind authoritatively in the frame header itself —
// the HTTP header is then a cross-check.
const KindHeader = "X-Parsel-Kind"

// KeyKindOf returns the wire name of key kind K: the key type its
// binary frames carry in their header.
func KeyKindOf[K Key]() string {
	return snapshot.KeyTypeFor[K]()
}

// Content types of the two wire encodings. JSON is the default and is
// always supported; the binary frame encoding is negotiated per
// request — Content-Type on a dataset upload selects the snapshot
// binary format for the body, Accept on a query selects the result
// frame for the response (see WithBinary). Error responses are
// always JSON regardless of Accept.
const (
	// ContentTypeJSON is the default encoding of every body.
	ContentTypeJSON = "application/json"
	// ContentTypeFrame is the binary frame encoding: uploads carry the
	// internal/snapshot dataset format (versioned header, CRC-32C per
	// section, per-proc shard extents — byte-identical to the daemon's
	// durable snapshots), responses carry the result frame (per-result
	// JSON metadata section plus a flat int64 values section, each
	// CRC-checked).
	ContentTypeFrame = "application/x-parsel-frame"
)

// QueryParams are the op-specific fields of a query body, shared by
// RequestOf and DatasetQuery: each op carries exactly the ones it reads.
// Pointer fields distinguish "absent" from a meaningful zero (rank 0 is
// invalid, but q=0 and k=0 are not).
type QueryParams struct {
	// Rank is the 1-based target rank (select).
	Rank *int64 `json:"rank,omitempty"`
	// Ranks are the 1-based target ranks (ranks).
	Ranks []int64 `json:"ranks,omitempty"`
	// Q is the quantile in [0,1] (quantile).
	Q *float64 `json:"q,omitempty"`
	// Qs are the quantiles in [0,1] (quantiles).
	Qs []float64 `json:"qs,omitempty"`
	// K is the element count (topk, bottomk).
	K *int `json:"k,omitempty"`
}

// paramsOf is the one conversion from a parsel.Query to its wire
// fields: exactly the fields the op carries — a median carries no
// "rank":0.
func paramsOf(q parsel.Query) QueryParams {
	var p QueryParams
	switch q.Op {
	case parsel.OpSelect:
		p.Rank = &q.Rank
	case parsel.OpQuantile:
		p.Q = &q.Q
	case parsel.OpQuantiles:
		p.Qs = q.Qs
	case parsel.OpRanks:
		p.Ranks = q.Ranks
	case parsel.OpTopK, parsel.OpBottomK:
		p.K = &q.K
	}
	return p
}

// RequestOf is the JSON body of every query endpoint, generic over the
// key kind.
type RequestOf[K Key] struct {
	// KeyKind names the key kind of Shards (one of the KeyKind
	// constants). Empty means int64, so int64 requests are
	// byte-identical to the pre-multi-kind wire.
	KeyKind string `json:"key_kind,omitempty"`
	// Shards is the sharded population, one slice of keys per simulated
	// processor.
	Shards [][]K `json:"shards"`
	// QueryParams are the op's fields (rank, ranks, q, qs, k).
	QueryParams
	// TimeoutMS bounds the wait for a free simulated machine, in
	// milliseconds. 0 means the server's default admission timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Report mirrors parsel.Report on the wire.
type Report struct {
	SimSeconds     float64 `json:"sim_seconds"`
	BalanceSeconds float64 `json:"balance_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	Iterations     int     `json:"iterations"`
	Unsuccessful   int     `json:"unsuccessful"`
	Messages       int64   `json:"messages"`
	Bytes          int64   `json:"bytes"`
}

// WireReport converts a library report to its wire form.
func WireReport(r parsel.Report) Report {
	return Report{
		SimSeconds:     r.SimSeconds,
		BalanceSeconds: r.BalanceSeconds,
		WallSeconds:    r.WallSeconds,
		Iterations:     r.Iterations,
		Unsuccessful:   r.Unsuccessful,
		Messages:       r.Messages,
		Bytes:          r.Bytes,
	}
}

// Report converts the wire form back to the library report. JSON
// round-trips float64 exactly (Go emits the shortest representation
// that parses back bit-identically), so simulated metrics survive the
// wire unchanged.
func (r Report) Report() parsel.Report {
	return parsel.Report{
		SimSeconds:     r.SimSeconds,
		BalanceSeconds: r.BalanceSeconds,
		WallSeconds:    r.WallSeconds,
		Iterations:     r.Iterations,
		Unsuccessful:   r.Unsuccessful,
		Messages:       r.Messages,
		Bytes:          r.Bytes,
	}
}

// SummaryOf is the five-number summary on the wire, generic over the
// key kind.
type SummaryOf[K Key] struct {
	Min    K `json:"min"`
	Q1     K `json:"q1"`
	Median K `json:"median"`
	Q3     K `json:"q3"`
	Max    K `json:"max"`
}

// ResponseOf is the 200 body of every query endpoint, generic over the
// key kind.
type ResponseOf[K Key] struct {
	// KeyKind names the key kind of the result values; empty means
	// int64, so int64 responses are byte-identical to the
	// pre-multi-kind wire.
	KeyKind string `json:"key_kind,omitempty"`
	// Value is the selected element (select, median, quantile).
	Value *K `json:"value,omitempty"`
	// Values are the selected elements aligned with the request
	// (quantiles, ranks) or ordered by rank (topk, bottomk). A k=0
	// result is an empty array, not null (omitzero keeps it on the
	// wire).
	Values []K `json:"values,omitzero"`
	// Summary is the five-number summary (summary).
	Summary *SummaryOf[K] `json:"summary,omitempty"`
	// Report is the simulated-machine report of the run.
	Report Report `json:"report"`
}

// DatasetUploadOf is the JSON body of PUT /v1/datasets/{id}: the one
// time the keys cross the wire. The daemon copies the shards into
// resident per-processor storage (snapshot-isolated, pinned to the
// machine shape len(shards)) and every later query against the dataset
// carries parameters only.
type DatasetUploadOf[K Key] struct {
	// KeyKind names the key kind of Shards (one of the KeyKind
	// constants); empty means int64. The X-Parsel-Kind request header
	// is equivalent; when both are present they must agree or the
	// upload is refused with bad_kind.
	KeyKind string `json:"key_kind,omitempty"`
	// Shards is the sharded population, one slice of keys per simulated
	// processor, exactly as the query endpoints take it.
	Shards [][]K `json:"shards"`
}

// DatasetQuery is the JSON body of POST /v1/datasets/{id}/query: any
// query of the daemon's surface, addressed at resident shards — the
// body carries no keys. Field requirements per kind match the
// shard-carrying endpoints (rank for select, q for quantile, ...).
type DatasetQuery struct {
	// Kind picks the query: a parsel.Op's name, as in the shard
	// endpoint path /v1/<kind>.
	Kind string `json:"kind"`
	// KeyKind optionally names the key kind the caller believes the
	// dataset holds (one of the KeyKind constants). The dataset itself
	// is authoritative — the field exists as a cross-check: a mismatch
	// is refused with bad_kind instead of silently answering with keys
	// of another type. Empty skips the check.
	KeyKind string `json:"key_kind,omitempty"`
	// QueryParams are the kind's fields, with the same requirements as
	// the shard-carrying endpoint's (rank for select, q for quantile,
	// ...).
	QueryParams
	// TimeoutMS bounds the wait for a free simulated machine, in
	// milliseconds. 0 means the server's default admission timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DatasetQueryOf is q as a dataset query or querymany item: the op's
// name as Kind and exactly the fields the op carries. KeyKind and
// TimeoutMS are the sender's to fill.
func DatasetQueryOf(q parsel.Query) DatasetQuery {
	return DatasetQuery{Kind: q.Op.String(), QueryParams: paramsOf(q)}
}

// DatasetQueryMany is the JSON body of POST /v1/datasets/{id}/querymany:
// a batch of independent queries against one resident dataset, answered
// in a single round trip. Items may mix kinds freely; the daemon fans
// them across its machine pool and results align with the request.
// Per-item failures (a rank out of range, a pool timeout) are reported
// per item — one bad query never poisons the batch.
type DatasetQueryMany struct {
	// Queries are the batch items, validated exactly like single
	// /query bodies. Per-item timeout_ms must be 0: the batch shares
	// one admission deadline, TimeoutMS below.
	Queries []DatasetQuery `json:"queries"`
	// TimeoutMS bounds the whole batch's wait for simulated machines,
	// in milliseconds. 0 means the server's default admission timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryManyResultOf is one item's outcome in a QueryManyResponseOf:
// either the embedded response fields (success) or Error (failure),
// never both.
type QueryManyResultOf[K Key] struct {
	ResponseOf[K]
	// Error is the item's failure, carrying the same stable wire codes
	// single queries map onto HTTP statuses; nil on success.
	Error *ErrorDetail `json:"error,omitempty"`
}

// QueryManyResponseOf is the 200 body of POST
// /v1/datasets/{id}/querymany; Results align with the request's
// Queries.
type QueryManyResponseOf[K Key] struct {
	Results []QueryManyResultOf[K] `json:"results"`
}

// DatasetInfo describes one resident dataset: the 200 body of upload,
// info and delete requests on /v1/datasets/{id}.
type DatasetInfo struct {
	// ID is the caller-chosen dataset identifier.
	ID string `json:"id"`
	// KeyKind names the dataset's key kind (one of the KeyKind
	// constants); empty means int64.
	KeyKind string `json:"key_kind,omitempty"`
	// Tenant names the tenant the dataset's resident bytes are charged
	// to; empty when the daemon runs without tenants.
	Tenant string `json:"tenant,omitempty"`
	// Procs is the machine shape: one simulated processor per shard.
	Procs int `json:"procs"`
	// N is the resident population size.
	N int64 `json:"n"`
	// Bytes is the resident size accounted against the daemon's budget.
	Bytes int64 `json:"bytes"`
	// ExpiresInMS is how long until TTL eviction if the dataset is not
	// touched again (uploads and queries reset the clock).
	ExpiresInMS int64 `json:"expires_in_ms"`
	// Restored reports that this dataset was recovered from a snapshot
	// at daemon startup rather than uploaded over the wire in this
	// process's lifetime. A re-upload of the id clears it.
	Restored bool `json:"restored,omitempty"`
}

// Code is a stable machine-readable wire error code. Every non-2xx
// response body names one; both halves of the wire share this single
// type — the daemon's handlers write the constants below and the
// client maps them back onto typed errors (see APIError.Is) — so the
// two can never drift. Codes are stable across releases; matching on
// them is the supported way to branch on failures.
type Code string

// String returns the code's wire spelling.
func (c Code) String() string { return string(c) }

// ErrorDetail is the machine-readable error payload.
type ErrorDetail struct {
	// Code is one of the Code constants — stable across releases.
	Code Code `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// Stable wire error codes.
const (
	// CodeBadJSON: the body is not valid JSON for the endpoint.
	CodeBadJSON Code = "bad_json"
	// CodeMissingField: a field the endpoint requires is absent.
	CodeMissingField Code = "missing_field"
	// CodeLimitExceeded: the request exceeds a configured server limit
	// (shard count, rank count, timeout).
	CodeLimitExceeded Code = "limit_exceeded"
	// CodeTooLarge: the body exceeds the server's byte limit (HTTP 413).
	CodeTooLarge Code = "too_large"
	// CodeQueueFull: the admission queue is full; retry later (429).
	CodeQueueFull Code = "queue_full"
	// CodePoolTimeout: every machine stayed busy past the deadline (429).
	CodePoolTimeout Code = "pool_timeout"
	// CodeShuttingDown: the daemon is draining (503).
	CodeShuttingDown Code = "shutting_down"
	// CodeRankRange: a rank or k is outside [1, n] (400).
	CodeRankRange Code = "rank_range"
	// CodeBadQuantile: a quantile is outside [0,1] or not a number (400).
	CodeBadQuantile Code = "bad_quantile"
	// CodeNoData: the shards hold zero elements (400).
	CodeNoData Code = "no_data"
	// CodeNoShards: the request carries no shards (400).
	CodeNoShards Code = "no_shards"
	// CodeDatasetNotFound: no resident dataset has this id — never
	// uploaded, deleted, or TTL-evicted (404).
	CodeDatasetNotFound Code = "dataset_not_found"
	// CodeResidentBudget: admitting the upload would exceed the daemon's
	// resident-bytes budget or dataset count; rejected in constant time,
	// without evicting live data (413).
	CodeResidentBudget Code = "resident_budget"
	// CodeBadKind: a dataset query's kind names no parsel.Op, a
	// request's key_kind is not one of the KeyKind constants, or the
	// key kind disagrees with the dataset it addresses (400).
	CodeBadKind Code = "bad_kind"
	// CodeUnknownTenant: the daemon runs with tenants configured and
	// the request carries no Authorization bearer token, or one that
	// matches no tenant (401).
	CodeUnknownTenant Code = "unknown_tenant"
	// CodeTenantBudget: admitting the upload would exceed the calling
	// tenant's resident-bytes budget or dataset quota; rejected in
	// constant time, without evicting live data (413). The global
	// resident budget still answers CodeResidentBudget.
	CodeTenantBudget Code = "tenant_budget"
	// CodeBadDatasetID: the dataset id in the URL is empty, too long, or
	// carries characters outside [A-Za-z0-9._-] (400).
	CodeBadDatasetID Code = "bad_dataset_id"
	// CodeBadFrame: a binary-framed upload body failed to decode —
	// truncated, bit-flipped, version-skewed or not the frame format at
	// all (400). Deterministic, never retried: resending the same bytes
	// cannot change the verdict.
	CodeBadFrame Code = "bad_frame"
	// CodeMethodNotAllowed: wrong HTTP method (405).
	CodeMethodNotAllowed Code = "method_not_allowed"
	// CodeNotFound: unknown endpoint (404).
	CodeNotFound Code = "not_found"
	// CodeInternal: an unexpected server fault (500).
	CodeInternal Code = "internal"
)

// Codes lists every stable wire code, for exhaustive handling (the
// code↔typed-error round-trip test ranges over it; a code added
// without updating the mappings fails there).
func Codes() []Code {
	return []Code{
		CodeBadJSON, CodeMissingField, CodeLimitExceeded, CodeTooLarge,
		CodeQueueFull, CodePoolTimeout, CodeShuttingDown, CodeRankRange,
		CodeBadQuantile, CodeNoData, CodeNoShards, CodeDatasetNotFound,
		CodeResidentBudget, CodeBadKind, CodeUnknownTenant, CodeTenantBudget,
		CodeBadDatasetID, CodeBadFrame, CodeMethodNotAllowed, CodeNotFound,
		CodeInternal,
	}
}

// PoolStats is parsel.PoolStats summed over the daemon's kind pools
// (int64, float64 and string), plus the pool capacity.
type PoolStats struct {
	Creates  int64 `json:"creates"`
	Hits     int64 `json:"hits"`
	Reshapes int64 `json:"reshapes"`
	Waits    int64 `json:"waits"`
	Timeouts int64 `json:"timeouts"`
	Resident int64 `json:"resident"`
	Idle     int64 `json:"idle"`
	// MaxMachines is the per-kind capacity, not a sum over kinds: the
	// int64 pool's machine limit, which the daemon's default float64
	// and string pools copy.
	MaxMachines int `json:"max_machines"`
}

// ServerStats counts what the HTTP front-end did.
type ServerStats struct {
	// Requests counts every query request received (excluding /v1/stats
	// and /healthz).
	Requests int64 `json:"requests"`
	// OK counts 200 responses.
	OK int64 `json:"ok"`
	// ClientErrors counts 4xx responses other than admission failures.
	ClientErrors int64 `json:"client_errors"`
	// ServerErrors counts 5xx responses.
	ServerErrors int64 `json:"server_errors"`
	// Timeouts counts 429 pool_timeout responses.
	Timeouts int64 `json:"timeouts"`
	// Rejected counts 429 queue_full responses.
	Rejected int64 `json:"rejected"`
	// Inflight is the number of requests currently admitted (a gauge).
	Inflight int64 `json:"inflight"`
	// Panics counts handler panics caught by the recovery middleware;
	// each also answered 500 and counted as a ServerError.
	Panics int64 `json:"panics,omitempty"`
	// Draining reports whether the daemon has begun graceful shutdown.
	Draining bool `json:"draining"`
}

// SimStats aggregates the simulated-machine metrics over served
// queries.
type SimStats struct {
	Queries    int64   `json:"queries"`
	SimSeconds float64 `json:"sim_seconds_total"`
	Messages   int64   `json:"messages_total"`
	Bytes      int64   `json:"bytes_total"`
}

// DatasetStats describes the daemon's resident-dataset state: the
// gauges (Count, ResidentBytes against BudgetBytes) and the lifecycle
// counters.
type DatasetStats struct {
	// Count is the number of resident datasets, uploads in flight
	// included: an upload holds its slot from admission (a gauge).
	Count int64 `json:"count"`
	// ResidentBytes is the total resident size of all datasets,
	// uploads in flight included (a gauge), never above BudgetBytes.
	ResidentBytes int64 `json:"resident_bytes"`
	// BudgetBytes is the configured resident-bytes budget.
	BudgetBytes int64 `json:"budget_bytes"`
	// Uploads counts accepted uploads (including replacements).
	Uploads int64 `json:"uploads"`
	// Replaced counts uploads that overwrote an existing id.
	Replaced int64 `json:"replaced"`
	// Deletes counts explicit DELETE removals.
	Deletes int64 `json:"deletes"`
	// Expired counts TTL evictions.
	Expired int64 `json:"expired"`
	// Rejected counts uploads refused for the resident budget (413).
	Rejected int64 `json:"rejected"`
	// NotFound counts queries/deletes addressed at absent ids (404).
	NotFound int64 `json:"not_found"`
	// Queries counts dataset-path queries served OK.
	Queries int64 `json:"queries"`
	// Exports counts snapshot-stream exports served OK (GET
	// /v1/datasets/{id}/snapshot) — the replication traffic a cluster
	// router generates when it ships datasets between nodes.
	Exports int64 `json:"exports,omitempty"`
}

// TenantReloadResult answers POST /v1/admin/tenants/reload.
type TenantReloadResult struct {
	// Tenants is how many tenants the reloaded configuration holds.
	Tenants int `json:"tenants"`
}

// TenantStats is one tenant's block in Stats.Tenants: the tenant's
// share of the resident-dataset ledger plus its configured limits.
type TenantStats struct {
	// Datasets is the tenant's resident dataset count, uploads in
	// flight included (a gauge).
	Datasets int64 `json:"datasets"`
	// ResidentBytes is the tenant's resident size (a gauge), never
	// above MaxResidentBytes.
	ResidentBytes int64 `json:"resident_bytes"`
	// MaxResidentBytes is the tenant's resident-bytes budget; 0 means
	// no per-tenant byte limit (the global budget still applies).
	MaxResidentBytes int64 `json:"max_resident_bytes,omitempty"`
	// MaxDatasets is the tenant's dataset quota; 0 means no per-tenant
	// count limit.
	MaxDatasets int `json:"max_datasets,omitempty"`
	// Requests counts the tenant's authenticated requests.
	Requests int64 `json:"requests"`
	// Rejected counts the tenant's uploads refused for its budget or
	// quota (413 tenant_budget).
	Rejected int64 `json:"rejected"`
}

// SnapshotStats describes the daemon's dataset persistence: disabled
// (all zero, Enabled false) unless parseld runs with -snapshot-dir.
type SnapshotStats struct {
	// Enabled reports whether a snapshot directory is configured.
	Enabled bool `json:"enabled"`
	// Restored counts datasets recovered from snapshots at startup.
	Restored int64 `json:"restored"`
	// RestoreSkipped counts manifest entries not recovered at startup:
	// expired TTLs, missing files, or datasets the budget/count caps
	// could not admit.
	RestoreSkipped int64 `json:"restore_skipped"`
	// Quarantined counts corrupt/truncated/version-skewed snapshot
	// files renamed aside (never loaded, never fatal).
	Quarantined int64 `json:"quarantined"`
	// Persists counts snapshot writes (uploads persisted in the
	// background plus the synchronous flush on drain).
	Persists int64 `json:"persists"`
	// PersistErrors counts snapshot writes that failed. The dataset
	// stays resident and serving; the next persist of its id (a later
	// upload, or the drain flush) retries the write.
	PersistErrors int64 `json:"persist_errors"`
	// SnapshotBytes is the on-disk size of all live snapshot files (a
	// gauge).
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Dirty is the number of datasets whose latest state is not yet on
	// disk (a gauge; zero after a graceful drain).
	Dirty int64 `json:"dirty"`
	// LastPersistUnixMS stamps the most recent successful snapshot
	// write, in Unix milliseconds; zero before the first.
	LastPersistUnixMS int64 `json:"last_persist_unix_ms"`
	// Degraded reports that the most recent snapshot persist failed and
	// no write has succeeded since: the daemon keeps serving (uploads
	// never fail on persistence), but /healthz reports degraded until a
	// write lands again.
	Degraded bool `json:"degraded,omitempty"`
}

// Health states reported by GET /healthz; each maps to a distinct HTTP
// status so a probe can branch on the status code alone.
const (
	// HealthOK (HTTP 200): serving normally.
	HealthOK = "ok"
	// HealthDegraded (HTTP 207): still serving every endpoint, but a
	// background obligation is failing — currently, snapshot persistence
	// (the Reason says which). Queries remain safe; durability is not.
	HealthDegraded = "degraded"
	// HealthDraining (HTTP 503): graceful shutdown has begun; in-flight
	// queries finish, new work is refused.
	HealthDraining = "draining"
)

// HealthStatus is the body of GET /healthz.
type HealthStatus struct {
	// Status is one of the Health constants.
	Status string `json:"status"`
	// Reason says why the daemon is not plain-healthy; empty when OK.
	Reason string `json:"reason,omitempty"`
}

// Bucket is one cumulative histogram bucket: Count observations were
// <= LE seconds.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Histogram is a host-latency histogram (seconds), cumulative like a
// Prometheus histogram; the implicit last bucket is +Inf = Count.
type Histogram struct {
	Count      int64    `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	Pool      PoolStats     `json:"pool"`
	Server    ServerStats   `json:"server"`
	Sim       SimStats      `json:"sim"`
	Datasets  DatasetStats  `json:"datasets"`
	Snapshots SnapshotStats `json:"snapshots"`
	Latency   Histogram     `json:"latency"`
	// Tenants maps tenant name to its ledger block; absent when the
	// daemon runs without tenants.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}
