package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"parsel"
	"parsel/internal/machine"
	"parsel/internal/selection"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// Dataset durability: when Options.SnapshotDir is set, the daemon
// keeps every resident dataset mirrored in an on-disk snapshot store
// (internal/snapshot) so a restart comes back warm — no key ever
// crosses the wire twice.
//
//   - Uploads mark their dataset dirty; a background snapshotter
//     persists dirty datasets as they appear (atomic temp-file +
//     fsync + rename writes, so a kill mid-write is invisible).
//   - A frame upload is written to disk once: while it streams in, its
//     CRC-verified bytes are spooled into a store temp file under the
//     daemon's own prologue (see spool), and its persist commits that
//     file — fsync, rename, manifest — byte-identical to an encode of
//     the shards. A JSON upload, and a frame upload whose spool failed,
//     is encoded from the resident shards at persist. A spool whose
//     dataset never commits or leaves before its persist (decode
//     error, replace, delete, eviction, stale generation) is removed;
//     a spool that fails never fails its upload.
//   - Deletes and TTL evictions mark the id dirty too; the
//     snapshotter reconciles disk with the registry, removing the
//     file of an id no longer resident.
//   - Drain marks every resident dataset dirty and flushes
//     synchronously, so a graceful shutdown persists the exact final
//     registry state, TTL clocks included.
//   - Startup recovery re-registers every manifest entry under its
//     original id and TTL deadline, restoring the decoded shards
//     zero-copy via Pool.RestoreDataset — queries against a restored
//     dataset are bit-identical to the pre-restart daemon's. Expired
//     entries, entries whose file is missing, and entries the
//     budget/count caps cannot admit are skipped with a logged
//     warning; corrupt/truncated/version-skewed files are quarantined
//     (renamed aside) with their typed decode error logged. Recovery
//     never fails the daemon.

// ErrSnapshotBudget reports that a snapshot could not be re-admitted
// at recovery because the resident-bytes budget or dataset count cap
// has no room for it (e.g. the daemon was restarted with a smaller
// budget). The snapshot file is kept: a restart with more room
// restores it.
var ErrSnapshotBudget = errors.New("serve: snapshot cannot be admitted within the resident dataset budget")

// initSnapshots opens the store, recovers its manifest into the
// registry, and starts the background snapshotter. Called by New;
// only an unusable directory is an error.
func (s *Server) initSnapshots(dir string) error {
	store, warnings, err := snapshot.Open(dir)
	if err != nil {
		return err
	}
	s.snap = store
	for _, w := range warnings {
		s.log.Warn("snapshots: store warning", "detail", w)
	}
	s.recoverSnapshots()
	go s.snapshotLoop()
	return nil
}

// recoverSnapshots re-registers every manifest entry; see the package
// comment above for the skip/quarantine policy. The manifest's key
// type picks the kind table row that restores the entry (a legacy
// manifest without the field reads as int64); a key type the table
// does not hold, or a file whose header disagrees with its entry, is
// skipped with the typed snapshot.ErrKeyType logged and the file kept.
func (s *Server) recoverSnapshots() {
	s.dsMu.Lock()
	now := s.now()
	s.dsMu.Unlock()
	var maxGen int64
	for _, m := range s.snap.Entries() {
		if m.Gen > maxGen {
			maxGen = m.Gen
		}
		if m.ExpiresUnixMS <= now.UnixMilli() {
			s.snap.Remove(m.ID)
			s.snapMu.Lock()
			s.sstats.RestoreSkipped++
			s.snapMu.Unlock()
			s.log.Warn("snapshots: dataset expired before restart; not restored",
				"id", m.ID,
				"expired_ago", now.Sub(time.UnixMilli(m.ExpiresUnixMS)).Round(time.Second).String())
			continue
		}
		if _, ok := s.tenantsByName[m.Tenant]; m.Tenant != "" && s.tenancy && !ok {
			// The owning tenant left the configuration. The file is
			// kept: a restart that re-adds the tenant restores it.
			s.snapMu.Lock()
			s.sstats.RestoreSkipped++
			s.snapMu.Unlock()
			s.log.Warn("snapshots: dataset belongs to unconfigured tenant; not restored",
				"id", m.ID, "tenant", m.Tenant)
			continue
		}
		var loadErr, restoreErr error
		if k, ok := s.kinds[m.KeyType]; ok {
			loadErr, restoreErr = k.recover(s, m)
		} else {
			loadErr = fmt.Errorf("%w: manifest declares %q keys", snapshot.ErrKeyType, m.KeyType)
		}
		switch {
		case loadErr != nil:
			s.snapMu.Lock()
			if errors.Is(loadErr, fs.ErrNotExist) || errors.Is(loadErr, snapshot.ErrKeyType) {
				s.sstats.RestoreSkipped++
			} else {
				s.sstats.Quarantined++
			}
			s.snapMu.Unlock()
			s.log.Warn("snapshots: dataset not restored", "id", m.ID, "err", loadErr.Error())
		case restoreErr != nil:
			s.snapMu.Lock()
			s.sstats.RestoreSkipped++
			s.snapMu.Unlock()
			s.log.Warn("snapshots: dataset not restored", "id", m.ID, "err", restoreErr.Error())
		default:
			s.snapMu.Lock()
			s.sstats.Restored++
			s.snapMu.Unlock()
		}
	}
	s.snapGen.Store(maxGen)
}

// RestoreDataset registers shards as a resident int64 dataset under id
// with the given TTL deadline, admitting against the same
// resident-bytes budget and count cap an upload faces — a refusal is
// the typed ErrSnapshotBudget, and live data is never evicted to make
// room. The shards are adopted zero-copy (Pool.RestoreDataset), so the
// caller must hand over ownership; gen is the dataset's upload
// generation from the manifest (it keeps stale background persists
// from regressing newer state). Used by startup recovery; exported so
// the admission contract is testable in isolation.
func (s *Server) RestoreDataset(id string, shards [][]int64, expires time.Time, gen int64) error {
	return restoreDataset(s, s.pool, id, shards, "", expires, gen)
}

// restoreDataset is the kind-typed core of RestoreDataset, restoring
// onto pool. It admits through the same policy an upload faces
// (refusalLocked), charging the owning tenant's row and checking its
// budget and quota when the tenant is configured.
func restoreDataset[K parselclient.Key](s *Server, pool *parsel.Pool[K], id string, shards [][]K, tenant string, expires time.Time, gen int64) error {
	if err := checkDatasetID(id); err != nil {
		return err
	}
	need := residentBytes[K](keyCount(shards))
	s.dsMu.Lock()
	if _, ok := s.datasets[id]; ok {
		s.dsMu.Unlock()
		return fmt.Errorf("serve: dataset %q is already resident", id)
	}
	if _, msg := s.refusalLocked(tenant, need, nil); msg != "" {
		s.dsMu.Unlock()
		return fmt.Errorf("%w: %s", ErrSnapshotBudget, msg)
	}
	s.chargeLocked(tenant, usage{bytes: need, datasets: 1}) // the reservation, as for an upload
	s.dsMu.Unlock()

	ds, err := pool.RestoreDataset(shards)

	s.dsMu.Lock()
	if err == nil {
		if _, ok := s.datasets[id]; ok {
			err = fmt.Errorf("serve: dataset %q is already resident", id)
		}
	}
	if err != nil {
		s.chargeLocked(tenant, usage{bytes: -need, datasets: -1})
		s.dsMu.Unlock()
		if ds != nil {
			ds.Close()
		}
		return err
	}
	// persistedExpires == expires: the deadline being registered is the
	// one just read off disk.
	e := &dsEntry{
		ds: residentOf[K]{ds}, tenant: tenant, bytes: need, expires: expires,
		gen: gen, persistedExpires: expires, restored: true,
	}
	s.datasets[id] = e
	s.dsMu.Unlock()
	return nil
}

// markDirty queues id for the background snapshotter: the dataset's
// disk state no longer matches the registry (uploaded, replaced,
// deleted, or evicted). No-op when snapshots are disabled. Safe to
// call with dsMu held (snapMu is always taken after dsMu, never
// before it).
func (s *Server) markDirty(id string) {
	if s.snap == nil {
		return
	}
	s.snapMu.Lock()
	s.snapDirty[id] = struct{}{}
	s.snapMu.Unlock()
	select {
	case s.snapWake <- struct{}{}:
	default:
	}
}

// popDirty takes one queued id, marking it in flight; the caller must
// pair a successful pop with donePersist.
func (s *Server) popDirty() (string, bool) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	for id := range s.snapDirty {
		delete(s.snapDirty, id)
		s.snapInflight++
		return id, true
	}
	return "", false
}

// donePersist retires one in-flight persist and wakes flushers.
func (s *Server) donePersist() {
	s.snapMu.Lock()
	s.snapInflight--
	s.snapMu.Unlock()
	s.snapCond.Broadcast()
}

// snapshotLoop is the background snapshotter: it drains the dirty set
// whenever woken, and exits when the drain flush stops it.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	for {
		select {
		case <-s.snapStop:
			return
		case <-s.snapWake:
			for {
				id, ok := s.popDirty()
				if !ok {
					break
				}
				s.persistOne(id)
				s.donePersist()
			}
		}
	}
}

// meta describes the entry's snapshot as saved at now under the options
// fingerprint fp. Called under dsMu.
func (e *dsEntry) meta(id string, now time.Time, fp string) snapshot.Meta {
	return snapshot.Meta{
		ID:            id,
		KeyType:       e.ds.kind(),
		Procs:         e.ds.Procs(),
		N:             e.ds.N(),
		Bytes:         e.bytes,
		Gen:           e.gen,
		ExpiresUnixMS: e.expires.UnixMilli(),
		SavedUnixMS:   now.UnixMilli(),
		Options:       fp,
		Tenant:        e.tenant,
	}
}

// persistOne reconciles one id's disk state with the registry: a
// resident dataset is saved (data rewrite skipped when its generation
// is already on disk), an absent one has its snapshot removed. A frame
// upload's spool is committed as the snapshot; anything else — a JSON
// upload, a failed or missing spool, a TTL refresh — is encoded from
// the resident shards. Persists are serialized (snapIOMu) and each
// re-reads the registry under the lock, so the last persist of an id
// always lands its latest state — a stale observation can never
// clobber a newer one.
func (s *Server) persistOne(id string) {
	s.snapIOMu.Lock()
	defer s.snapIOMu.Unlock()
	s.dsMu.Lock()
	e, ok := s.datasets[id]
	var (
		meta    snapshot.Meta
		sp      *snapshot.Spool
		expires time.Time
	)
	now := s.now()
	if ok {
		expires = e.expires
		meta = e.meta(id, now, s.optionsFP)
		sp, e.spool = e.spool, nil
	}
	s.dsMu.Unlock()

	if !ok {
		if err := s.snap.Remove(id); err != nil {
			s.countPersist(now, err)
			s.log.Error("snapshots: remove failed", "id", id, "err", err.Error())
		}
		return
	}
	var err error
	if sp != nil && sp.Err() == nil {
		err = sp.Commit(meta)
	} else {
		if sp != nil {
			s.log.Warn("snapshots: upload spool failed; encoding the dataset instead",
				"id", id, "err", sp.Err().Error())
			sp.Discard()
		}
		if err = e.ds.save(s.snap, meta); errors.Is(err, parsel.ErrDatasetClosed) {
			// Replaced or deleted between the registry read and here;
			// that path re-marked the id dirty, so the newer state wins.
			return
		}
	}
	s.countPersist(now, err)
	if err != nil {
		// The dataset stays resident and serving; the next persist of
		// this id (a later upload, or the drain flush marking every
		// resident dataset) retries the write.
		s.log.Error("snapshots: persist failed", "id", id, "err", err.Error())
		return
	}
	// Record what deadline is on disk, so query-driven TTL refreshes
	// know when a metadata re-persist is due.
	s.dsMu.Lock()
	if cur, ok := s.datasets[id]; ok && cur == e && cur.persistedExpires.Before(expires) {
		cur.persistedExpires = expires
	}
	s.dsMu.Unlock()
}

// spool opens a store spool for a frame upload and points dec's
// copy-out at it, so the stream's extents and data sections land on
// disk as they are decoded, under a prologue carrying the daemon's own
// Options fingerprint. It returns nil when snapshots are off or the
// spool cannot be created; the persist then encodes the dataset, and
// the upload goes ahead either way.
func (s *Server) spool(id string, dec *snapshot.StreamDecoder) *snapshot.Spool {
	if s.snap == nil {
		return nil
	}
	h := dec.Header()
	h.Options = s.optionsFP
	sp, err := s.snap.NewSpool(h)
	if err != nil {
		s.log.Warn("snapshots: cannot spool upload; its persist will encode it",
			"id", id, "err", err.Error())
		return nil
	}
	dec.CopyTo(sp)
	return sp
}

// countPersist attributes one snapshot write to the stats and drives
// the degraded-health flag: a failed write flips it (the daemon keeps
// serving, /healthz turns 207), the next successful write clears it.
func (s *Server) countPersist(now time.Time, err error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err != nil {
		s.sstats.PersistErrors++
		s.sstats.Degraded = true
		return
	}
	s.sstats.Persists++
	s.sstats.LastPersistUnixMS = now.UnixMilli()
	s.sstats.Degraded = false
}

// FlushSnapshots persists every dirty dataset synchronously and
// returns only when the dirty set is empty AND no persist is in
// flight anywhere (background snapshotter included) — after it, disk
// reflects every registry change made before the call. No-op when
// snapshots are disabled. Drain calls it after marking all resident
// datasets dirty; tests call it to make background persistence
// deterministic.
func (s *Server) FlushSnapshots() {
	if s.snap == nil {
		return
	}
	for {
		if id, ok := s.popDirty(); ok {
			s.persistOne(id)
			s.donePersist()
			continue
		}
		s.snapMu.Lock()
		for len(s.snapDirty) == 0 && s.snapInflight > 0 {
			s.snapCond.Wait()
		}
		idle := len(s.snapDirty) == 0 && s.snapInflight == 0
		s.snapMu.Unlock()
		if idle {
			return
		}
	}
}

// drainSnapshots runs the shutdown persistence exactly once: stop the
// background snapshotter, flush outstanding data changes, then land
// every resident dataset's final TTL state in ONE batched manifest
// commit — not one fsync'd manifest rewrite per dataset. Datasets
// whose data is not on disk (a failed earlier persist) get a full
// retried save first.
func (s *Server) drainSnapshots() {
	if s.snap == nil {
		return
	}
	s.snapOnce.Do(func() {
		close(s.snapStop)
		<-s.snapDone

		// Snapshot the registry's final state.
		s.dsMu.Lock()
		now := s.now()
		metas := make([]snapshot.Meta, 0, len(s.datasets))
		for id, e := range s.datasets {
			metas = append(metas, e.meta(id, now, s.optionsFP))
			e.persistedExpires = e.expires
		}
		s.dsMu.Unlock()

		// Full saves for anything not on disk at its current
		// generation (pending uploads, earlier persist failures), and
		// for pending removals already in the dirty set.
		for _, m := range metas {
			if on, ok := s.snap.Meta(m.ID); !ok || on.Gen != m.Gen {
				s.markDirty(m.ID)
			}
		}
		s.FlushSnapshots()

		// The final TTL clocks, one manifest write for the lot.
		if err := s.snap.RefreshMeta(metas); err != nil {
			s.log.Error("snapshots: drain metadata flush failed", "err", err.Error())
		}
	})
}

// snapshotStats samples the persistence gauges.
func (s *Server) snapshotStats() parselclient.SnapshotStats {
	if s.snap == nil {
		return parselclient.SnapshotStats{}
	}
	s.snapMu.Lock()
	st := s.sstats
	st.Dirty = int64(len(s.snapDirty))
	s.snapMu.Unlock()
	st.Enabled = true
	st.SnapshotBytes = s.snap.TotalDiskBytes()
	return st
}

// optionsFingerprint names the engine configuration a snapshot is
// written under (its header's Options string, compared at restore). It
// lists the effective value of every setting that moves simulated
// metrics, by name, with a zero field read as its default: the same
// configuration gives the same string however it was spelled, and a
// renamed or added Options field does not change it. max_iterations
// names the engine's fixed iteration cap.
func optionsFingerprint(o parsel.Options) string {
	params := machine.DefaultParams(1)
	if o.Machine.Seed != 0 {
		params.Seed = o.Machine.Seed
	}
	if o.Machine.PerHop > 0 {
		params.PerHopSec = o.Machine.PerHop.Seconds()
	}
	return fmt.Sprintf("algorithm=%v balancer=%v seed=%d topology=%v per_hop_s=%g max_iterations=%d faithful=%t",
		o.Algorithm, o.Balancer, params.Seed, o.Machine.Topology, params.PerHop(), selection.DefaultMaxIterations, o.Faithful)
}
