package snapshot

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is a directory of snapshot files plus a manifest of the live
// set. All mutations are crash-safe: file and manifest writes go
// through a temp file, fsync, and an atomic rename, so a kill at any
// instant leaves either the old state or the new one — a partial
// write is invisible (its temp file is swept on the next Open).
//
// Methods are safe for concurrent use; the store serializes its own
// disk access.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[string]Meta

	// fault, when set, is consulted before each step a test may fail
	// (see SetFault).
	fault atomic.Pointer[func(Step) error]
}

// Step names a store operation a test can fail through SetFault.
type Step string

const (
	// StepSpoolWrite is one write into a Spool.
	StepSpoolWrite Step = "spool write"
	// StepDirSync is the directory fsync that makes a rename durable.
	StepDirSync Step = "dir sync"
)

// SetFault installs a failure seam for tests: before each step the
// store calls f, and a non-nil result fails the step as an I/O error
// would. A nil f removes the seam.
func (st *Store) SetFault(f func(Step) error) {
	if f == nil {
		st.fault.Store(nil)
		return
	}
	st.fault.Store(&f)
}

// failed reports the seam's verdict on step; nil without a seam.
func (st *Store) failed(step Step) error {
	if f := st.fault.Load(); f != nil {
		return (*f)(step)
	}
	return nil
}

// Meta is one manifest entry: everything the daemon needs to
// re-register a dataset without decoding its snapshot file first.
type Meta struct {
	// ID is the dataset id the snapshot restores under.
	ID string `json:"id"`
	// File is the snapshot's file name within the store directory.
	File string `json:"file"`
	// Procs, N and Bytes mirror the resident dataset's shape and
	// budget accounting.
	Procs int   `json:"procs"`
	N     int64 `json:"n"`
	Bytes int64 `json:"bytes"`
	// DiskBytes is the snapshot file's size.
	DiskBytes int64 `json:"disk_bytes"`
	// Gen is the dataset's upload generation; a SaveAs carrying the
	// generation already on disk skips the data rewrite, and a stale
	// one is ignored entirely.
	Gen int64 `json:"gen"`
	// ExpiresUnixMS is the dataset's TTL deadline at the time of the
	// last persist, as absolute wall-clock milliseconds; recovery
	// skips entries already past it.
	ExpiresUnixMS int64 `json:"expires_unix_ms"`
	// SavedUnixMS stamps the last persist of this entry.
	SavedUnixMS int64 `json:"saved_unix_ms"`
	// Options fingerprints the pool configuration at persist time.
	Options string `json:"options"`
	// KeyType names the dataset's key kind (KeyTypeInt64,
	// KeyTypeFloat64 or KeyTypeString); manifests written before the field existed imply
	// KeyTypeInt64, which Open fills in.
	KeyType string `json:"key_type,omitempty"`
	// Tenant names the tenant the dataset's resident bytes are charged
	// to; empty when the daemon runs without tenants.
	Tenant string `json:"tenant,omitempty"`
}

// manifestFile is the JSON schema of the store's manifest.
type manifestFile struct {
	Version  int    `json:"version"`
	Datasets []Meta `json:"datasets"`
}

const (
	manifestName    = "manifest.json"
	manifestVersion = 1
	snapSuffix      = ".snap"
	tmpPrefix       = ".tmp-"
	quarantineExt   = ".quarantined"
)

// Open opens (creating if needed) a snapshot store at dir. Leftover
// temp files from interrupted writes are removed. A corrupt or
// version-skewed manifest is quarantined — renamed aside, reported in
// the returned warnings — and the store starts empty rather than
// failing; only an unusable directory is an error.
func Open(dir string) (*Store, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("snapshot: open store: %w", err)
	}
	st := &Store{dir: dir, entries: make(map[string]Meta)}
	var warnings []string

	// Sweep interrupted writes: a temp file that never reached its
	// rename is not part of any state.
	if names, err := os.ReadDir(dir); err == nil {
		for _, de := range names {
			if strings.HasPrefix(de.Name(), tmpPrefix) {
				os.Remove(filepath.Join(dir, de.Name()))
				warnings = append(warnings,
					fmt.Sprintf("removed interrupted partial write %s", de.Name()))
			}
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return st, warnings, nil
	case err != nil:
		return nil, nil, fmt.Errorf("snapshot: read manifest: %w", err)
	}
	var mf manifestFile
	if jsonErr := json.Unmarshal(data, &mf); jsonErr != nil || mf.Version != manifestVersion {
		why := fmt.Sprintf("version %d (want %d)", mf.Version, manifestVersion)
		if jsonErr != nil {
			why = jsonErr.Error()
		}
		q := manifestName + quarantineExt
		os.Rename(filepath.Join(dir, manifestName), filepath.Join(dir, q))
		warnings = append(warnings,
			fmt.Sprintf("quarantined unreadable manifest to %s: %s", q, why))
		return st, warnings, nil
	}
	for _, m := range mf.Datasets {
		if m.ID == "" || !safeID(m.ID) || m.File != m.ID+snapSuffix {
			warnings = append(warnings,
				fmt.Sprintf("dropped manifest entry with unsafe id/file %q/%q", m.ID, m.File))
			continue
		}
		if m.KeyType == "" {
			m.KeyType = KeyTypeInt64
		}
		st.entries[m.ID] = m
	}

	// Sweep orphans: a .snap file no manifest entry references (e.g. a
	// crash between a removal's unlink attempt failing over or an
	// interrupted replace) would otherwise leak disk forever, since
	// nothing ever loads or deletes it.
	if names, err := os.ReadDir(dir); err == nil {
		referenced := make(map[string]bool, len(st.entries))
		for _, m := range st.entries {
			referenced[m.File] = true
		}
		for _, de := range names {
			name := de.Name()
			if !strings.HasSuffix(name, snapSuffix) || referenced[name] {
				continue
			}
			os.Remove(filepath.Join(dir, name))
			warnings = append(warnings,
				fmt.Sprintf("removed orphaned snapshot %s (not in the manifest)", name))
		}
	}
	return st, warnings, nil
}

// safeID reports whether id is usable as a file-name stem: the same
// [A-Za-z0-9._-] alphabet the daemon enforces on the wire, re-checked
// here so the store never trusts its caller with path construction. A
// leading dot is refused outright — it covers "." and "..", and keeps
// snapshot files from masquerading as dotfiles (".foo.snap") or
// colliding with the store's own temp-file prefix.
func safeID(id string) bool {
	if id == "" || len(id) > 255-len(snapSuffix) || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// SaveAs persists one dataset: its snapshot file (skipped when the
// on-disk generation already matches, so TTL refreshes don't rewrite
// the data) and the manifest. A SaveAs older than the manifest's
// generation is a no-op — a slow background persist can never regress
// a newer state. Meta.KeyType is stamped from K. (A package-level
// function because Go methods cannot take type parameters.)
func SaveAs[K Key](st *Store, meta Meta, shards [][]K) error {
	meta.KeyType = KeyTypeFor[K]()
	r, err := NewReader(Header{Options: meta.Options}, shards)
	if err != nil {
		return err
	}
	return st.commit(meta, func(name string) (int64, error) {
		// Streamed, not buffered: a near-budget dataset must not double
		// resident memory on its way to disk.
		return st.writeAtomicStream(name, r.WriteTo)
	})
}

// commit is the one commit tail of SaveAs and Spool.Commit: the
// generation guard, the data file (write lands it under name, and is
// skipped when the generation is already on disk) and the manifest.
func (st *Store) commit(meta Meta, write func(name string) (int64, error)) error {
	if !safeID(meta.ID) {
		return fmt.Errorf("snapshot: unsafe dataset id %q", meta.ID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	prev, exists := st.entries[meta.ID]
	if exists && prev.Gen > meta.Gen {
		return nil
	}
	meta.File = meta.ID + snapSuffix
	if exists && prev.Gen == meta.Gen && prev.KeyType == meta.KeyType && prev.Options == meta.Options {
		// Same data under the same header already on disk:
		// metadata-only refresh.
		meta.DiskBytes = prev.DiskBytes
	} else {
		size, err := write(meta.File)
		if err != nil {
			return err
		}
		meta.DiskBytes = size
	}
	st.entries[meta.ID] = meta
	return st.writeManifestLocked()
}

// Spool is a snapshot file written while its dataset streams in, so
// the persist that follows has only to commit it: a temp file in the
// store directory holding h's prologue, then whatever the caller
// writes — the extents and data sections exactly as a StreamDecoder
// reads them (StreamDecoder.CopyTo). After a successful ReadDataAs the
// file is byte-identical to what SaveAs writes for the decoded shards.
// The temp name carries the store's temp prefix, so a crash leaves
// nothing Open does not sweep.
//
// A Spool has one owner at a time; it ends in exactly one Commit or
// Discard.
type Spool struct {
	st      *Store
	f       *os.File
	bw      *bufio.Writer
	keyType string
	size    int64
	err     error
}

// NewSpool creates a spool whose prologue describes h: its key type,
// Options fingerprint, machine shape and population size.
func (st *Store) NewSpool(h Header) (*Spool, error) {
	f, err := os.CreateTemp(st.dir, tmpPrefix+"spool-*")
	if err != nil {
		return nil, fmt.Errorf("snapshot: create spool: %w", err)
	}
	sp := &Spool{st: st, f: f, bw: bufio.NewWriterSize(f, 4096), keyType: h.KeyType}
	sp.Write(appendPrologue(nil, h))
	return sp, nil
}

// Write appends p to the spool. The first failure is sticky: every
// later Write returns it, and Err reports it.
func (sp *Spool) Write(p []byte) (int, error) {
	if sp.err == nil {
		sp.err = sp.st.failed(StepSpoolWrite)
	}
	if sp.err == nil && len(p) > sp.bw.Available() && sp.bw.Buffered() > 0 {
		// Flush first, so the buffer does not re-copy a large write:
		// bufio hands one that finds it empty straight to the file.
		sp.err = sp.bw.Flush()
	}
	if sp.err == nil {
		_, sp.err = sp.bw.Write(p)
	}
	if sp.err != nil {
		return 0, sp.err
	}
	sp.size += int64(len(p))
	return len(p), nil
}

// Err is the spool's first write failure, if any. A spool with one
// must not be committed: its file is incomplete.
func (sp *Spool) Err() error { return sp.err }

// Commit lands the spool as meta.ID's snapshot through the same commit
// tail as SaveAs — generation guard, fsync, rename, directory sync,
// manifest — with Meta.KeyType stamped from the spool's prologue. The
// temp file is removed whatever the outcome, including a stale
// generation that leaves the newer file in place.
func (sp *Spool) Commit(meta Meta) error {
	defer sp.Discard()
	if sp.err != nil {
		return fmt.Errorf("snapshot: spool for %s: %w", meta.ID, sp.err)
	}
	meta.KeyType = sp.keyType
	return sp.st.commit(meta, func(name string) (int64, error) {
		if err := sp.bw.Flush(); err != nil {
			return 0, fmt.Errorf("snapshot: write %s: %w", name, err)
		}
		f := sp.f
		sp.f = nil // the rename consumes the temp file, or commitTemp removes it
		return sp.size, sp.st.commitTemp(f, name)
	})
}

// Discard removes an uncommitted spool's temp file. It is a no-op on a
// nil or already finished spool.
func (sp *Spool) Discard() {
	if sp == nil || sp.f == nil {
		return
	}
	sp.f.Close()
	os.Remove(sp.f.Name())
	sp.f = nil
}

// Remove drops a dataset from the manifest and deletes its snapshot
// file. The file is unlinked before the manifest commits: a crash in
// between leaves a manifest entry referencing a missing file, which
// the next startup's LoadAs skips and drops — self-healing — whereas
// the opposite order would orphan the file on disk forever.
// Removing an absent id is a no-op.
func (st *Store) Remove(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	meta, ok := st.entries[id]
	if !ok {
		return nil
	}
	if err := os.Remove(filepath.Join(st.dir, meta.File)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("snapshot: remove %s: %w", meta.File, err)
	}
	delete(st.entries, id)
	return st.writeManifestLocked()
}

// Meta returns the manifest entry for id, if any.
func (st *Store) Meta(id string) (Meta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, ok := st.entries[id]
	return m, ok
}

// RefreshMeta updates the metadata (TTL deadline, save stamp) of
// several entries and commits the manifest ONCE — the drain path's
// batched alternative to N gen-matching Saves, each of which would
// rewrite and fsync the manifest individually. An entry that is
// absent or holds a different generation is skipped: metadata must
// never point a manifest entry at data it does not describe. For the
// same reason an entry keeps its Options, the fingerprint in its
// file's header, which only a Save rewrites.
func (st *Store) RefreshMeta(metas []Meta) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	changed := false
	for _, m := range metas {
		prev, ok := st.entries[m.ID]
		if !ok || prev.Gen != m.Gen {
			continue
		}
		m.File = prev.File
		m.DiskBytes = prev.DiskBytes
		m.KeyType = prev.KeyType
		m.Options = prev.Options
		st.entries[m.ID] = m
		changed = true
	}
	if !changed {
		return nil
	}
	return st.writeManifestLocked()
}

// LoadAs reads and decodes one dataset's snapshot through the same
// streaming decoder the daemon's binary uploads use (the file is never
// materialized whole — the data section streams straight into the
// contiguous backing RestoreDataset adopts). A missing file returns an
// fs.ErrNotExist-matching error and drops the manifest entry (it
// referenced nothing). An entry whose manifest or file header names a
// key type other than K is refused with ErrKeyType and its file left in
// place — it is the reader that is mismatched, not the snapshot. A
// corrupt, truncated or
// version-skewed file is quarantined — renamed to <file>.quarantined
// so it never poisons another startup — its entry dropped, and the
// typed decode error returned; I/O faults are reported without
// quarantining (the file may be fine).
func LoadAs[K Key](st *Store, id string) (Header, [][]K, Meta, error) {
	st.mu.Lock()
	meta, ok := st.entries[id]
	st.mu.Unlock()
	if !ok {
		return Header{}, nil, Meta{}, fmt.Errorf("snapshot: no manifest entry for %q: %w",
			id, fs.ErrNotExist)
	}
	if want := KeyTypeFor[K](); meta.KeyType != want {
		return Header{}, nil, Meta{}, fmt.Errorf("%w: snapshot %q holds %q keys, reader decodes %q",
			ErrKeyType, id, meta.KeyType, want)
	}
	f, err := os.Open(filepath.Join(st.dir, meta.File))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			st.drop(id)
		}
		return Header{}, nil, Meta{}, fmt.Errorf("snapshot: read %s: %w", meta.File, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Header{}, nil, Meta{}, fmt.Errorf("snapshot: stat %s: %w", meta.File, err)
	}
	var shards [][]K
	dec, err := NewStreamDecoder(bufio.NewReaderSize(f, 1<<16), fi.Size())
	if err == nil {
		shards, err = ReadDataAs[K](dec)
	}
	if err != nil {
		if IsDecodeError(err) && !errors.Is(err, ErrKeyType) {
			st.quarantine(id, meta.File)
			return Header{}, nil, Meta{}, err
		}
		return Header{}, nil, Meta{}, fmt.Errorf("snapshot: read %s: %w", meta.File, err)
	}
	return dec.Header(), shards, meta, nil
}

// drop removes a manifest entry without touching files.
func (st *Store) drop(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.entries[id]; !ok {
		return
	}
	delete(st.entries, id)
	st.writeManifestLocked()
}

// quarantine renames a damaged snapshot aside and drops its entry.
func (st *Store) quarantine(id, file string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	os.Rename(filepath.Join(st.dir, file), filepath.Join(st.dir, file+quarantineExt))
	if _, ok := st.entries[id]; ok {
		delete(st.entries, id)
		st.writeManifestLocked()
	}
}

// Entries returns the manifest's live entries, sorted by id for
// deterministic recovery order.
func (st *Store) Entries() []Meta {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Meta, 0, len(st.entries))
	for _, m := range st.entries {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalDiskBytes sums the live snapshot files' sizes — the stats
// gauge behind /v1/stats.
func (st *Store) TotalDiskBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total int64
	for _, m := range st.entries {
		total += m.DiskBytes
	}
	return total
}

// writeManifestLocked persists the manifest atomically; caller holds
// st.mu.
func (st *Store) writeManifestLocked() error {
	mf := manifestFile{Version: manifestVersion}
	for _, m := range st.entries {
		mf.Datasets = append(mf.Datasets, m)
	}
	sort.Slice(mf.Datasets, func(i, j int) bool { return mf.Datasets[i].ID < mf.Datasets[j].ID })
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: encode manifest: %w", err)
	}
	return st.writeAtomic(manifestName, append(data, '\n'))
}

// writeAtomic writes name via temp file + fsync + rename + directory
// sync, so the file either keeps its old content or carries the new
// one in full.
func (st *Store) writeAtomic(name string, data []byte) error {
	_, err := st.writeAtomicStream(name, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	return err
}

// writeAtomicStream is writeAtomic with the content produced by a
// streaming writer; it returns the byte count written.
func (st *Store) writeAtomicStream(name string, write func(io.Writer) (int64, error)) (int64, error) {
	tmp, err := os.CreateTemp(st.dir, tmpPrefix+name+"-*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: create temp for %s: %w", name, err)
	}
	size, err := write(tmp)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("snapshot: write %s: %w", name, err)
	}
	return size, st.commitTemp(tmp, name)
}

// commitTemp makes a fully written temp file the store's file name:
// fsync, close, rename, and the directory fsync that makes the rename
// durable. The temp file is removed on any failure before the rename;
// a failure after it is still reported, since the new name may not
// survive a crash.
func (st *Store) commitTemp(tmp *os.File, name string) error {
	tmpName := tmp.Name()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: write %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: close %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(st.dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: commit %s: %w", name, err)
	}
	d, err := os.Open(st.dir)
	if err == nil {
		if err = st.failed(StepDirSync); err == nil {
			err = d.Sync()
		}
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("snapshot: sync directory for %s: %w", name, err)
	}
	return nil
}
