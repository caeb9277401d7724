package serve

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"parsel"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// The resident-dataset registry: upload once, query many. An upload
// (PUT /v1/datasets/{id}) ships the shards a single time into a
// parsel.Dataset — resident per-processor storage pinned to the upload's
// machine shape — and every later query (POST /v1/datasets/{id}/query)
// carries parameters only, checking an idle machine of matching shape
// out of the shared pool. Responses are bit-identical to posting the
// same shards per query.
//
// Two resource bounds keep resident state safe to expose:
//
//   - A resident-bytes budget (Options.MaxResidentBytes, plus an entry
//     count cap MaxDatasets): an upload that would exceed it is refused
//     with 413 "resident_budget" by a constant-time counter comparison —
//     live datasets are never evicted to make room.
//   - A TTL (Options.DatasetTTL): uploads and queries reset a dataset's
//     expiry; one left idle past the TTL is evicted by the lazy sweep
//     that runs on every registry touch (uploads, queries, deletes,
//     stats). Eviction is pure registry work — it never needs a machine,
//     so a wedged or saturated pool cannot pin expired memory.
//
// A query in flight when its dataset is deleted or evicted completes
// normally (the snapshot is reclaimed after the last reader returns);
// later queries get 404 "dataset_not_found".

// dsEntry is one resident dataset with its accounting state.
type dsEntry struct {
	// ds is the dataset behind its key kind (see kind.go).
	ds resident
	// tenant names the tenant whose ledger row holds this dataset's bytes;
	// empty on a daemon without tenants.
	tenant  string
	bytes   int64
	expires time.Time
	// gen is the upload generation (monotonic across the registry); the
	// snapshot store uses it to skip data rewrites and ignore stale
	// background persists.
	gen int64
	// persistedExpires is the TTL deadline last written to the snapshot
	// store. Query-driven TTL refreshes re-persist (metadata-only) once
	// the in-memory deadline has advanced at least half a TTL past it,
	// so a hard kill costs an actively-queried dataset at most half its
	// TTL of freshness — not the whole deadline — without an fsync per
	// query.
	persistedExpires time.Time
	// restored marks a dataset recovered from a snapshot at startup
	// rather than uploaded in this process's lifetime.
	restored bool
	// spool is a frame upload's snapshot file, written while it
	// streamed in and not yet committed; nil once the persist takes it,
	// and for JSON uploads and restores. Taken and cleared under dsMu:
	// by the persist, which commits it, or by dropLocked, which
	// discards it.
	spool *snapshot.Spool
}

// info shapes the entry's wire description. The key kind travels only
// for non-int64 datasets, keeping the historical wire byte-identical.
func (e *dsEntry) info(id string, now time.Time) parselclient.DatasetInfo {
	return parselclient.DatasetInfo{
		ID:          id,
		KeyKind:     e.ds.kindField(),
		Tenant:      e.tenant,
		Procs:       e.ds.Procs(),
		N:           e.ds.N(),
		Bytes:       e.bytes,
		ExpiresInMS: e.expires.Sub(now).Milliseconds(),
		Restored:    e.restored,
	}
}

// chargeLocked is the one writer of the dataset ledger: it adds d to
// the tenant's row (none for the empty name, a daemon without tenants)
// and its bytes and datasets to the daemon's row. Rows are keyed by
// name, not by configuration, so a reload never resets or orphans
// them. Caller holds dsMu.
func (s *Server) chargeLocked(tenant string, d usage) {
	s.total.bytes += d.bytes
	s.total.datasets += d.datasets
	if tenant == "" {
		return
	}
	u := s.byTenant[tenant]
	u.bytes += d.bytes
	u.datasets += d.datasets
	u.requests += d.requests
	u.rejected += d.rejected
	s.byTenant[tenant] = u
}

// refusalLocked is the one admission policy for a dataset of need
// bytes charged to tenant, replacing prev (nil for a new id): the
// daemon's byte budget and dataset cap, then the tenant's byte budget
// and quota when the tenant is configured. The replaced dataset's
// bytes and slot are credited back — to the tenant only when that
// tenant holds them. It returns the refusal's wire code and message,
// or an empty code to admit. Uploads, frame uploads and snapshot
// restores all admit here. Caller holds dsMu.
func (s *Server) refusalLocked(tenant string, need int64, prev *dsEntry) (code parselclient.Code, msg string) {
	freed, slot := int64(0), int64(1)
	if prev != nil {
		freed, slot = prev.bytes, 0
	}
	switch {
	case s.total.bytes-freed+need > s.opts.MaxResidentBytes:
		return parselclient.CodeResidentBudget, fmt.Sprintf(
			"dataset needs %d resident bytes; %d of the %d-byte budget are held (live data is never evicted to make room)",
			need, s.total.bytes, s.opts.MaxResidentBytes)
	case s.total.datasets+slot > int64(s.opts.MaxDatasets):
		return parselclient.CodeResidentBudget, fmt.Sprintf(
			"daemon already holds %d datasets, the limit", s.opts.MaxDatasets)
	}
	cfg, ok := s.tenantsByName[tenant]
	if !ok {
		return "", ""
	}
	if prev == nil || prev.tenant != tenant {
		freed, slot = 0, 1
	}
	u := s.byTenant[tenant]
	switch {
	case cfg.MaxResidentBytes > 0 && u.bytes-freed+need > cfg.MaxResidentBytes:
		return parselclient.CodeTenantBudget, fmt.Sprintf(
			"dataset needs %d resident bytes; tenant %q holds %d of its %d-byte budget",
			need, tenant, u.bytes, cfg.MaxResidentBytes)
	case cfg.MaxDatasets > 0 && u.datasets+slot > int64(cfg.MaxDatasets):
		return parselclient.CodeTenantBudget, fmt.Sprintf(
			"tenant %q already holds %d datasets, its quota", tenant, cfg.MaxDatasets)
	}
	return "", ""
}

// dropLocked removes an entry from the registry and the ledger without
// closing its dataset, and discards its uncommitted spool: a dataset
// that leaves before its persist never reaches disk. Caller holds dsMu.
func (s *Server) dropLocked(id string, e *dsEntry) {
	delete(s.datasets, id)
	s.chargeLocked(e.tenant, usage{bytes: -e.bytes, datasets: -1})
	e.spool.Discard()
	e.spool = nil
}

// sweepLocked evicts every dataset whose TTL has lapsed. Caller holds
// dsMu. Closing the evicted datasets is a flag write (in-flight queries
// complete and the runtime reclaims the snapshots), so the sweep is
// cheap enough to run on every registry touch.
func (s *Server) sweepLocked(now time.Time) {
	for id, e := range s.datasets {
		if now.Before(e.expires) {
			continue
		}
		s.dropLocked(id, e)
		s.dstats.Expired++
		e.ds.Close()
		s.markDirty(id) // the snapshotter removes the evicted id's file
	}
}

// handleDatasets routes /v1/datasets/{id}[/query] by path shape and
// method. Registered under the "/v1/datasets/" prefix.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/datasets/")
	id, op, _ := strings.Cut(rest, "/")
	if err := checkDatasetID(id); err != nil {
		// A malformed id is a routing mistake, reported like 404/405:
		// outside the request-accounting counters.
		pe := err.(*ParseError)
		writeError(w, http.StatusBadRequest, pe.Code, pe.Msg)
		return
	}
	switch op {
	case "":
		switch r.Method {
		case http.MethodPut:
			s.handleDatasetUpload(w, r, id)
		case http.MethodGet:
			s.handleDatasetInfo(w, r, id)
		case http.MethodDelete:
			s.handleDatasetDelete(w, r, id)
		default:
			w.Header().Set("Allow", "PUT, GET, DELETE")
			writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
				"datasets are PUT (upload), GET (info) or DELETE requests")
		}
	case "query", "querymany":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
				"dataset queries are POST requests")
			return
		}
		s.handleDatasetQuery(w, r, id, op == "querymany")
	case "snapshot":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
				"dataset snapshots are GET requests")
			return
		}
		s.handleDatasetSnapshot(w, r, id)
	default:
		writeError(w, http.StatusNotFound, parselclient.CodeNotFound,
			fmt.Sprintf("no dataset operation %q", op))
	}
}

// admitOrReject takes an admission token, or writes the constant-time
// 429 and returns false. The caller must release() on true.
func (s *Server) admitOrReject(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case s.admit <- struct{}{}:
		return func() { <-s.admit }, true
	default:
		s.countError(http.StatusTooManyRequests, parselclient.CodeQueueFull)
		s.logShed(r, http.StatusTooManyRequests, parselclient.CodeQueueFull,
			fmt.Sprintf("admission capacity exhausted (capacity %d)", cap(s.admit)))
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, parselclient.CodeQueueFull,
			fmt.Sprintf("admission capacity exhausted (%d requests in flight, capacity %d)",
				len(s.admit), cap(s.admit)))
		return nil, false
	}
}

// refuseIfDraining counts the request and writes the 503 if the daemon
// is draining; it returns true when the caller must stop.
func (s *Server) refuseIfDraining(w http.ResponseWriter) bool {
	s.mu.Lock()
	s.srv.Requests++
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.countError(http.StatusServiceUnavailable, parselclient.CodeShuttingDown)
		writeError(w, http.StatusServiceUnavailable, parselclient.CodeShuttingDown,
			"daemon is draining")
	}
	return draining
}

// handleDatasetUpload serves PUT /v1/datasets/{id}: the upload-once
// half of the resident contract. The shards are parsed, checked against
// the resident-bytes budget (a constant-time counter comparison — no
// eviction of live data, no machine work), copied into resident
// storage, and registered under the id, replacing any previous dataset
// there.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	defer release()

	// Declared-oversize bodies are refused before a byte is read.
	if r.ContentLength > s.opts.Limits.MaxBodyBytes {
		s.writeRequestError(w, parseErrf(parselclient.CodeTooLarge,
			"declared body of %d bytes exceeds %d", r.ContentLength, s.opts.Limits.MaxBodyBytes))
		return
	}
	if parselclient.IsFrameContentType(r.Header.Get("Content-Type")) {
		s.handleFrameUpload(w, r, id)
		return
	}
	body, err := readBody(w, r, s.opts.Limits.MaxBodyBytes)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	kind, err := sniffKeyKind(body, r.Header.Get(parselclient.KindHeader))
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	s.kinds[kind].upload(s, w, r, id, body)
}

// handleFrameUpload serves a PUT whose Content-Type negotiated the
// binary frame encoding: the body is the snapshot dataset format,
// byte-identical to the daemon's durable snapshots, decoded by the
// same streaming path a warm restart uses. The prologue (magic,
// version, header) arrives before any key does, so the machine-shape
// check and the resident-bytes reservation happen up front; the keys
// then stream in bounded chunks straight into one resident backing
// array that RestoreDataset adopts without copying — the body is never
// materialized whole. The decoder reads the body unbuffered: the
// server's connection reader already serves its small prologue reads,
// and hands its chunk-sized data reads the socket's bytes directly,
// where a second buffer would copy every key once more.
func (s *Server) handleFrameUpload(w http.ResponseWriter, r *http.Request, id string) {
	body := http.MaxBytesReader(w, r.Body, s.opts.Limits.MaxBodyBytes)
	dec, err := snapshot.NewStreamDecoder(body, s.opts.Limits.MaxBodyBytes)
	if err != nil {
		s.writeFrameUploadError(w, err)
		return
	}
	h := dec.Header()
	// The stream header's key type is authoritative for the kind; an
	// X-Parsel-Kind header, if sent, must agree.
	if want := r.Header.Get(parselclient.KindHeader); want != "" &&
		!strings.EqualFold(strings.TrimSpace(want), h.KeyType) {
		s.writeRequestError(w, parseErrf(parselclient.CodeBadKind,
			"%s header %q disagrees with the stream's key type %q",
			parselclient.KindHeader, want, h.KeyType))
		return
	}
	if h.Procs > s.opts.Limits.MaxProcs {
		s.writeRequestError(w, parseErrf(parselclient.CodeLimitExceeded,
			"%d shards, limit %d simulated processors", h.Procs, s.opts.Limits.MaxProcs))
		return
	}
	// The decoder admits only the key types the kind table holds.
	s.kinds[h.KeyType].frameUpload(s, w, r, id, dec)
}

// writeFrameUploadError reports a binary-upload decode failure. The
// transport's byte-limit overrun keeps its 413 too_large verdict
// (retryable semantics identical to the JSON path); every actual
// decode failure — truncation, bit flip, version skew, wrong magic —
// is a deterministic 400 bad_frame that no retry can change.
func (s *Server) writeFrameUploadError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeRequestError(w, parseErrf(parselclient.CodeTooLarge,
			"body exceeds %d bytes", mbe.Limit))
		return
	}
	s.countError(http.StatusBadRequest, parselclient.CodeBadFrame)
	writeError(w, http.StatusBadRequest, parselclient.CodeBadFrame,
		fmt.Sprintf("decode binary upload: %v", err))
}

// reserveUpload runs the admission half of an upload against the
// registry: sweep, the admission policy (refusalLocked), then the
// reservation of need bytes and one dataset slot. Admission is a
// counter comparison under the registry lock; the key copy or stream
// runs unlocked (a near-budget upload must not stall queries and stats
// for the duration), against the reservation, which commitUpload
// installs or unwindUpload returns. A replaced dataset leaves the
// registry here, so during the copy the id reads as not-found — the
// same window a DELETE + re-upload sequence has — and queries in
// flight on the old snapshot complete normally. On false the refusal
// is already written.
func (s *Server) reserveUpload(w http.ResponseWriter, r *http.Request, id, tenant string, need int64) (replacing, ok bool) {
	s.dsMu.Lock()
	s.sweepLocked(s.now())
	prev := s.datasets[id]
	code, msg := s.refusalLocked(tenant, need, prev)
	if code != "" {
		s.dstats.Rejected++
		if code == parselclient.CodeTenantBudget {
			s.chargeLocked(tenant, usage{rejected: 1})
		}
		s.dsMu.Unlock()
		s.countError(http.StatusRequestEntityTooLarge, code)
		s.logShed(r, http.StatusRequestEntityTooLarge, code, msg)
		w.Header().Set("Retry-After", "1") // a delete or TTL eviction may free room
		writeError(w, http.StatusRequestEntityTooLarge, code, msg)
		return false, false
	}
	if prev != nil {
		s.dropLocked(id, prev)
		s.dstats.Replaced++
	}
	s.chargeLocked(tenant, usage{bytes: need, datasets: 1}) // the reservation
	s.dsMu.Unlock()
	if prev != nil {
		prev.ds.Close()
	}
	return prev != nil, true
}

// unwindUpload returns a reservation whose dataset never materialized
// (a decode fault mid-stream, a closed pool).
func (s *Server) unwindUpload(id, tenant string, need int64, replacing bool) {
	s.dsMu.Lock()
	s.chargeLocked(tenant, usage{bytes: -need, datasets: -1})
	s.dsMu.Unlock()
	if replacing {
		// The id's previous dataset left the registry at reservation
		// time; reconcile its snapshot with that.
		s.markDirty(id)
	}
}

// commitUpload installs ds under id on its reservation, with the
// upload's spool (nil for JSON) for its persist to commit, and answers
// the request. The ledger already holds the dataset's bytes and slot.
func commitUpload[K parselclient.Key](s *Server, w http.ResponseWriter, id, tenant string, ds *parsel.Dataset[K], need int64, sp *snapshot.Spool) {
	s.dsMu.Lock()
	if cur, ok := s.datasets[id]; ok {
		// A concurrent upload of the same id committed during our copy:
		// last writer wins, exactly as serialized PUTs would end.
		s.dropLocked(id, cur)
		s.dstats.Replaced++
		cur.ds.Close()
	}
	now := s.now()
	e := &dsEntry{
		ds: residentOf[K]{ds}, tenant: tenant, bytes: need,
		expires: now.Add(s.opts.DatasetTTL), gen: s.snapGen.Add(1), spool: sp,
	}
	s.datasets[id] = e
	s.dstats.Uploads++
	info := e.info(id, now)
	s.dsMu.Unlock()
	s.markDirty(id)
	s.countOK()
	writeJSON(w, http.StatusOK, info)
}

// residentBytes is what n keys of kind K will occupy once resident —
// the figure the ledger charges at admission for JSON uploads, frame
// uploads and restores alike, and the one place a dataset's resident
// size is computed: n slots of K's in-memory size — 8 bytes for the
// fixed-width kinds, the 16-byte string header for strings (whose
// backing arrays the budget deliberately does not meter).
func residentBytes[K parselclient.Key](n int64) int64 {
	return n * int64(reflect.TypeFor[K]().Size())
}

// keyCount is the population of shards.
func keyCount[K any](shards [][]K) int64 {
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	return n
}

// lookup resolves id in the registry after the lazy sweep and runs
// hit on the entry while dsMu is still held; a miss is counted and
// answered 404 dataset_not_found. On false the answer is already
// written.
func (s *Server) lookup(w http.ResponseWriter, id string, hit func(e *dsEntry, now time.Time)) (*dsEntry, bool) {
	s.dsMu.Lock()
	now := s.now()
	s.sweepLocked(now)
	e, ok := s.datasets[id]
	if ok {
		hit(e, now)
	} else {
		s.dstats.NotFound++
	}
	s.dsMu.Unlock()
	if !ok {
		s.countError(http.StatusNotFound, parselclient.CodeDatasetNotFound)
		writeError(w, http.StatusNotFound, parselclient.CodeDatasetNotFound,
			fmt.Sprintf("no resident dataset %q", id))
	}
	return e, ok
}

// countOK counts one successful response.
func (s *Server) countOK() {
	s.mu.Lock()
	s.srv.OK++
	s.mu.Unlock()
}

// handleDatasetInfo serves GET /v1/datasets/{id}: the description
// without touching the TTL (probes must not keep a dataset alive).
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	var info parselclient.DatasetInfo
	if _, ok := s.lookup(w, id, func(e *dsEntry, now time.Time) { info = e.info(id, now) }); !ok {
		return
	}
	s.countOK()
	writeJSON(w, http.StatusOK, info)
}

// handleDatasetDelete serves DELETE /v1/datasets/{id}: the dataset
// leaves the registry and its budget is freed immediately; queries in
// flight complete normally.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	var info parselclient.DatasetInfo
	e, ok := s.lookup(w, id, func(e *dsEntry, now time.Time) {
		s.dropLocked(id, e)
		s.dstats.Deletes++
		info = e.info(id, now)
	})
	if !ok {
		return
	}
	e.ds.Close()
	s.markDirty(id) // the snapshotter removes the deleted id's file
	s.countOK()
	writeJSON(w, http.StatusOK, info)
}

// handleDatasetSnapshot serves GET /v1/datasets/{id}/snapshot: the
// resident dataset streamed out as the snapshot binary format — the
// exact bytes a frame upload of the same shards would carry, CRCs
// included — so a cluster router can replicate a dataset it did not
// upload (Dataset.View on this node, RestoreDataset on the receiver;
// the keys are never materialized a second time on either end). The
// export is TTL-neutral like Info: replication traffic must not keep
// an otherwise-idle dataset alive.
func (s *Server) handleDatasetSnapshot(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	defer release()

	// View runs under dsMu: an entry found in the registry cannot be
	// closed while the lock is held (sweeps, deletes and replacement
	// all remove it under this lock first), so the shard views stay
	// valid; they remain readable after release even if the dataset is
	// deleted mid-stream, like queries in flight.
	var write func(http.ResponseWriter)
	var verr error
	if _, ok := s.lookup(w, id, func(e *dsEntry, _ time.Time) {
		if write, verr = e.ds.export(s); verr == nil {
			s.dstats.Exports++
		}
	}); !ok {
		return
	}
	if verr != nil {
		s.writeQueryError(w, verr)
		return
	}
	write(w)
}

// writeSnapshotOf streams one kind-typed snapshot export through a
// snapshot encoder: exact Content-Length up front, then the encoding
// written piece by piece — the dataset is never buffered whole. The
// stream's header names the key type.
func writeSnapshotOf[K parselclient.Key](s *Server, w http.ResponseWriter, shards [][]K) {
	rd, err := snapshot.NewReader(snapshot.Header{Options: s.optionsFP}, shards)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	s.countOK()
	w.Header().Set("Content-Type", parselclient.ContentTypeFrame)
	w.Header().Set("Content-Length", strconv.FormatInt(rd.Size(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = rd.WriteTo(w)
}

// handleDatasetQuery serves POST /v1/datasets/{id}/query and, with
// batch set, /v1/datasets/{id}/querymany: the query-many half of the
// resident contract. The body carries query parameters only; the keys
// are already resident. A batch is a set of independent queries
// answered in a single round trip under one admission token and one
// shared admission deadline; results align with the request. A
// successful lookup resets the dataset's TTL.
func (s *Server) handleDatasetQuery(w http.ResponseWriter, r *http.Request, id string, batch bool) {
	start := time.Now()
	if s.refuseIfDraining(w) {
		return
	}
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
	parse := ParseDatasetQuery
	if batch {
		parse = ParseDatasetQueryMany
	}
	qm, qs, err := parse(body, s.opts.Limits)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}

	e, ok := s.lookup(w, id, func(e *dsEntry, now time.Time) {
		e.expires = now.Add(s.opts.DatasetTTL)
		if s.snap != nil && e.expires.Sub(e.persistedExpires) >= s.opts.DatasetTTL/2 {
			s.markDirty(id) // metadata-only re-persist of the advanced TTL
		}
	})
	if !ok {
		return
	}
	for i := range qm.Queries {
		if k := qm.Queries[i].KeyKind; k != "" && k != e.ds.kind() {
			s.writeRequestError(w, parseErrf(parselclient.CodeBadKind,
				"dataset %q holds %s keys; query %d asked for %s", id, e.ds.kind(), i, k))
			return
		}
	}
	e.ds.query(s, w, r, start, qm.TimeoutMS, qs, batch)
}
