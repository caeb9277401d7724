package serve

import (
	"context"
	"net/http"
	"time"

	"parsel"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// The kind table: one row per key kind, built once in New. A row owns
// its kind's pool and the kind-typed tails every endpoint ends in, so a
// handler resolves the kind's name (sniffKeyKind, a frame header, a
// manifest entry) and dispatches through s.kinds without ever naming a
// kind itself. A registered dataset carries the same dispatch for its
// own kind as a resident.

// keyKind is one row of the kind table.
type keyKind interface {
	stats() parsel.PoolStats
	// shardQuery answers a /v1/<op> body of this kind.
	shardQuery(s *Server, w http.ResponseWriter, r *http.Request, op parsel.Op, body []byte, start time.Time)
	// upload registers a JSON upload body of this kind.
	upload(s *Server, w http.ResponseWriter, r *http.Request, id string, body []byte)
	// frameUpload streams a binary upload whose header names this kind.
	frameUpload(s *Server, w http.ResponseWriter, r *http.Request, id string, dec *snapshot.StreamDecoder)
	// recover restores one manifest entry of this kind. A load failure
	// and a registration failure report separately so the caller can
	// attribute quarantines to decode faults only.
	recover(s *Server, m snapshot.Meta) (loadErr, restoreErr error)
}

// kindOf is the kind table row for K.
type kindOf[K parselclient.Key] struct {
	pool *parsel.Pool[K]
}

func (k kindOf[K]) stats() parsel.PoolStats { return k.pool.Stats() }

func (k kindOf[K]) shardQuery(s *Server, w http.ResponseWriter, r *http.Request, op parsel.Op, body []byte, start time.Time) {
	req, q, err := ParseRequestOf[K](op, body, s.opts.Limits)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	run := func(ctx context.Context, q parsel.Query) (parsel.Answer[K], error) {
		return k.pool.Run(ctx, req.Shards, q)
	}
	runQueries(s, w, r, start, req.TimeoutMS, run, false, []parsel.Query{q}, false)
}

func (k kindOf[K]) upload(s *Server, w http.ResponseWriter, r *http.Request, id string, body []byte) {
	up, err := ParseDatasetUploadOf[K](body, s.opts.Limits)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	tenant := tenantOf(r)
	need := residentBytes[K](keyCount(up.Shards))
	replacing, ok := s.reserveUpload(w, r, id, tenant, need)
	if !ok {
		return
	}
	ds, err := k.pool.NewDataset(up.Shards)
	if err != nil {
		s.unwindUpload(id, tenant, need, replacing)
		s.writeQueryError(w, err)
		return
	}
	commitUpload(s, w, id, tenant, ds, need, nil)
}

// frameUpload reserves against the header's declared size, streams the
// keys into resident backing — spooling the verified bytes into the
// snapshot store on the way (see spool) — and commits.
func (k kindOf[K]) frameUpload(s *Server, w http.ResponseWriter, r *http.Request, id string, dec *snapshot.StreamDecoder) {
	tenant := tenantOf(r)
	need := residentBytes[K](dec.Header().N)
	replacing, ok := s.reserveUpload(w, r, id, tenant, need)
	if !ok {
		return
	}
	sp := s.spool(id, dec)
	shards, err := snapshot.ReadDataAs[K](dec)
	if err != nil {
		sp.Discard()
		s.unwindUpload(id, tenant, need, replacing)
		s.writeFrameUploadError(w, err)
		return
	}
	ds, err := k.pool.RestoreDataset(shards)
	if err != nil {
		sp.Discard()
		s.unwindUpload(id, tenant, need, replacing)
		s.writeQueryError(w, err)
		return
	}
	commitUpload(s, w, id, tenant, ds, need, sp)
}

func (k kindOf[K]) recover(s *Server, m snapshot.Meta) (loadErr, restoreErr error) {
	h, shards, meta, err := snapshot.LoadAs[K](s.snap, m.ID)
	if err != nil {
		return err, nil
	}
	stale := h.Options != s.optionsFP
	if stale {
		s.log.Warn("snapshots: dataset was persisted under different pool options; restoring anyway — values stay correct, simulated metrics follow the new configuration",
			"id", m.ID, "options", h.Options)
	}
	restoreErr = restoreDataset(s, k.pool, m.ID, shards, meta.Tenant,
		time.UnixMilli(meta.ExpiresUnixMS), meta.Gen)
	if stale && restoreErr == nil {
		// Re-persist under this daemon's options, so that the warning
		// fires once per configuration change, not on every restart.
		s.markDirty(m.ID)
	}
	return nil, restoreErr
}

// resident is a registered dataset behind its key kind: the typed
// *parsel.Dataset and the tails that read it.
type resident interface {
	Close()
	Procs() int
	N() int64
	// kind names the key kind; kindField is its "key_kind" wire field
	// (empty for int64).
	kind() string
	kindField() string
	// query answers a /query or /querymany batch against the dataset.
	query(s *Server, w http.ResponseWriter, r *http.Request, start time.Time, timeoutMS int64, qs []parsel.Query, batch bool)
	// save encodes the dataset as meta's snapshot (snapshot.SaveAs); a
	// closed dataset reports parsel.ErrDatasetClosed.
	save(st *snapshot.Store, meta snapshot.Meta) error
	// export takes a view of the shards — under dsMu, see
	// handleDatasetSnapshot — and returns the writer that streams it.
	export(s *Server) (func(http.ResponseWriter), error)
}

// residentOf is the resident for a K-keyed dataset.
type residentOf[K parselclient.Key] struct {
	*parsel.Dataset[K]
}

func (d residentOf[K]) kind() string      { return parselclient.KeyKindOf[K]() }
func (d residentOf[K]) kindField() string { return parselclient.KeyKindField[K]() }

func (d residentOf[K]) query(s *Server, w http.ResponseWriter, r *http.Request, start time.Time, timeoutMS int64, qs []parsel.Query, batch bool) {
	runQueries(s, w, r, start, timeoutMS, d.Run, true, qs, batch)
}

func (d residentOf[K]) save(st *snapshot.Store, meta snapshot.Meta) error {
	shards, err := d.View()
	if err != nil {
		return err
	}
	return snapshot.SaveAs(st, meta, shards)
}

func (d residentOf[K]) export(s *Server) (func(http.ResponseWriter), error) {
	shards, err := d.View()
	if err != nil {
		return nil, err
	}
	return func(w http.ResponseWriter) { writeSnapshotOf(s, w, shards) }, nil
}
