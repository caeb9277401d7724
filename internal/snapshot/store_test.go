package snapshot

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// open is Open with warnings surfaced as test log lines.
func open(t *testing.T, dir string) *Store {
	t.Helper()
	st, warnings, err := Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	for _, w := range warnings {
		t.Logf("open warning: %s", w)
	}
	return st
}

func meta(id string, gen int64) Meta {
	return Meta{ID: id, Procs: 2, N: 3, Bytes: 24, Gen: gen,
		ExpiresUnixMS: 1<<60 - 1, SavedUnixMS: 1000, Options: "fp"}
}

// TestStoreLifecycle pins SaveAs/LoadAs/Entries/Remove across a reopen:
// the manifest is the durable registry, entries come back sorted, and
// Remove deletes both the entry and its file.
func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)

	a := [][]int64{{3, 1}, {4}}
	b := [][]int64{{9}, {8, 7}}
	if err := SaveAs(st, meta("beta", 1), b); err != nil {
		t.Fatal(err)
	}
	if err := SaveAs(st, meta("alpha", 2), a); err != nil {
		t.Fatal(err)
	}

	// Reopen: the manifest carries both entries, sorted by id.
	st = open(t, dir)
	entries := st.Entries()
	if len(entries) != 2 || entries[0].ID != "alpha" || entries[1].ID != "beta" {
		t.Fatalf("entries after reopen: %+v", entries)
	}
	if st.TotalDiskBytes() != entries[0].DiskBytes+entries[1].DiskBytes {
		t.Errorf("TotalDiskBytes %d, entries sum differently", st.TotalDiskBytes())
	}
	h, shards, m, err := LoadAs[int64](st, "alpha")
	if err != nil {
		t.Fatalf("load alpha: %v", err)
	}
	if h.Procs != 2 || m.Gen != 2 || len(shards) != 2 ||
		!slices.Equal(shards[0], a[0]) || !slices.Equal(shards[1], a[1]) {
		t.Errorf("alpha round trip: header %+v meta %+v shards %v", h, m, shards)
	}

	if err := st.Remove("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "beta.snap")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("beta.snap survives Remove: %v", err)
	}
	if err := st.Remove("beta"); err != nil {
		t.Errorf("second Remove: %v", err)
	}
	st = open(t, dir)
	if entries := st.Entries(); len(entries) != 1 || entries[0].ID != "alpha" {
		t.Errorf("entries after remove+reopen: %+v", entries)
	}
}

// TestStoreGenerationGuard pins the generation protocol: an equal-gen
// Save refreshes metadata without rewriting the data file, and a
// stale-gen Save is a complete no-op, so a slow background persist
// can never clobber a newer upload.
func TestStoreGenerationGuard(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	if err := SaveAs(st, meta("x", 5), [][]int64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, "x.snap"))
	if err != nil {
		t.Fatal(err)
	}

	// Same gen, new expiry: metadata-only (different shards here prove
	// the data was NOT rewritten).
	m := meta("x", 5)
	m.ExpiresUnixMS = 777777
	if err := SaveAs(st, m, [][]int64{{9, 9, 9, 9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	_, shards, got, err := LoadAs[int64](st, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(shards[0], []int64{1, 2, 3}) {
		t.Errorf("equal-gen Save rewrote the data: %v", shards)
	}
	if got.ExpiresUnixMS != 777777 {
		t.Errorf("equal-gen Save did not refresh metadata: %+v", got)
	}

	// Stale gen: no-op, metadata included.
	stale := meta("x", 4)
	stale.ExpiresUnixMS = 1
	if err := SaveAs(st, stale, [][]int64{{0}}); err != nil {
		t.Fatal(err)
	}
	if _, _, got, _ := LoadAs[int64](st, "x"); got.Gen != 5 || got.ExpiresUnixMS != 777777 {
		t.Errorf("stale Save changed state: %+v", got)
	}

	// Newer gen: full rewrite.
	if err := SaveAs(st, meta("x", 6), [][]int64{{4, 4}}); err != nil {
		t.Fatal(err)
	}
	_, shards, _, err = LoadAs[int64](st, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(shards[0], []int64{4, 4}) {
		t.Errorf("newer-gen Save kept old data: %v", shards)
	}
	if after, _ := os.Stat(filepath.Join(dir, "x.snap")); after.Size() == before.Size() {
		t.Logf("note: sizes equal (%d), rewrite verified by content", after.Size())
	}
}

// spoolOf streams body through a decoder whose copy-out is a fresh
// spool under the "fp" fingerprint, as the daemon does for a frame
// upload.
func spoolOf(t *testing.T, st *Store, body []byte) *Spool {
	t.Helper()
	dec, err := NewStreamDecoder(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	h := dec.Header()
	h.Options = "fp"
	sp, err := st.NewSpool(h)
	if err != nil {
		t.Fatal(err)
	}
	dec.CopyTo(sp)
	if _, err := ReadDataAs[int64](dec); err != nil {
		t.Fatal(err)
	}
	return sp
}

// tempFiles lists the store's leftover temp files.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStoreSpoolCommit pins the spool's half of the commit tail: a
// committed spool is byte-identical to SaveAs's encode of the decoded
// shards (the upload's own Options fingerprint replaced by the
// store's), a stale-generation spool leaves the newer file in place,
// an equal-generation one refreshes metadata only, and every outcome
// removes the temp file.
func TestStoreSpoolCommit(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	shards := [][]int64{{1, 2, 3}}
	body := Encode(Header{Options: "the uploader's"}, shards)

	if err := spoolOf(t, st, body).Commit(meta("x", 5)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "x.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if want := Encode(Header{Options: "fp"}, shards); !bytes.Equal(got, want) {
		t.Errorf("committed spool:\n %x\nwant the encode\n %x", got, want)
	}
	if m, _ := st.Meta("x"); m.KeyType != KeyTypeInt64 || m.DiskBytes != int64(len(got)) {
		t.Errorf("committed spool's entry: %+v", m)
	}

	// Newer generation by SaveAs, then a stale spool: the newer file
	// stays and the spool's temp file goes.
	if err := SaveAs(st, meta("x", 7), [][]int64{{4, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := spoolOf(t, st, body).Commit(meta("x", 6)); err != nil {
		t.Fatal(err)
	}
	_, loaded, m, err := LoadAs[int64](st, "x")
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen != 7 || !slices.Equal(loaded[0], []int64{4, 4}) {
		t.Errorf("stale spool commit changed state: %+v %v", m, loaded)
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Errorf("stale spool left %v", tmp)
	}

	// Equal generation: metadata only, temp file removed.
	same := meta("x", 7)
	same.ExpiresUnixMS = 4242
	if err := spoolOf(t, st, body).Commit(same); err != nil {
		t.Fatal(err)
	}
	_, loaded, m, _ = LoadAs[int64](st, "x")
	if m.ExpiresUnixMS != 4242 || !slices.Equal(loaded[0], []int64{4, 4}) {
		t.Errorf("equal-gen spool commit: %+v %v", m, loaded)
	}

	// A discarded spool leaves nothing either.
	spoolOf(t, st, body).Discard()
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Errorf("spools left %v", tmp)
	}
}

// TestStoreFaults pins the failure seam's two steps. A failing
// directory sync after the rename fails SaveAs and a spool commit
// alike, so the caller cannot count a persist whose rename may not be
// durable. A failing spool write is sticky: the spool reports it, and
// refuses to commit.
func TestStoreFaults(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	body := Encode(Header{}, [][]int64{{1, 2, 3}})
	boom := errors.New("injected")
	st.SetFault(func(s Step) error {
		if s == StepDirSync {
			return boom
		}
		return nil
	})
	if err := SaveAs(st, meta("enc", 1), [][]int64{{1}}); !errors.Is(err, boom) {
		t.Errorf("SaveAs under a failing dir sync = %v, want the injected error", err)
	}
	if err := spoolOf(t, st, body).Commit(meta("spooled", 1)); !errors.Is(err, boom) {
		t.Errorf("spool commit under a failing dir sync = %v, want the injected error", err)
	}

	st.SetFault(func(s Step) error {
		if s == StepSpoolWrite {
			return boom
		}
		return nil
	})
	sp := spoolOf(t, st, body)
	if !errors.Is(sp.Err(), boom) {
		t.Errorf("spool Err = %v, want the injected error", sp.Err())
	}
	if err := sp.Commit(meta("broken", 1)); !errors.Is(err, boom) {
		t.Errorf("commit of a failed spool = %v, want the injected error", err)
	}
	if _, ok := st.Meta("broken"); ok {
		t.Error("a failed spool reached the manifest")
	}

	st.SetFault(nil)
	if err := SaveAs(st, meta("enc", 2), [][]int64{{1}}); err != nil {
		t.Errorf("SaveAs with the seam removed: %v", err)
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Errorf("faults left %v", tmp)
	}
}

// TestStorePartialWriteInvisible pins crash safety: a temp file left
// by an interrupted write (no rename) changes nothing — the next Open
// sweeps it and the manifest's state is what loads.
func TestStorePartialWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	if err := SaveAs(st, meta("live", 1), [][]int64{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	// Crash artifacts: a half-written snapshot and a half-written
	// manifest that never reached their renames.
	junk := Encode(Header{}, [][]int64{{6, 6}})
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"live.snap-123"), junk[:len(junk)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"manifest.json-9"), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}

	st, warnings, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 2 {
		t.Errorf("warnings %v, want the two swept partial writes", warnings)
	}
	if entries := st.Entries(); len(entries) != 1 || entries[0].ID != "live" {
		t.Fatalf("entries: %+v", entries)
	}
	if _, shards, _, err := LoadAs[int64](st, "live"); err != nil || !slices.Equal(shards[0], []int64{5, 5}) {
		t.Errorf("live dataset after partial-write sweep: %v %v", shards, err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if len(left) != 0 {
		t.Errorf("temp files survive Open: %v", left)
	}
}

// TestStoreMissingFile pins that a manifest entry whose file vanished
// loads as an fs.ErrNotExist-matching error and drops out of the
// manifest instead of poisoning later opens.
func TestStoreMissingFile(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	if err := SaveAs(st, meta("gone", 1), [][]int64{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveAs(st, meta("here", 1), [][]int64{{2}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "gone.snap")); err != nil {
		t.Fatal(err)
	}

	st = open(t, dir)
	if _, _, _, err := LoadAs[int64](st, "gone"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	if entries := st.Entries(); len(entries) != 1 || entries[0].ID != "here" {
		t.Errorf("entries after missing-file load: %+v", entries)
	}
	// The drop is durable.
	st = open(t, dir)
	if entries := st.Entries(); len(entries) != 1 {
		t.Errorf("entries after reopen: %+v", entries)
	}
}

// TestStoreQuarantine pins that a corrupt snapshot file is renamed
// aside with its typed error surfaced, dropped from the manifest, and
// never reloaded.
func TestStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	if err := SaveAs(st, meta("bad", 3), [][]int64{{8, 6, 7, 5, 3, 0, 9}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bad.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, shards, _, err := LoadAs[int64](st, "bad"); !errors.Is(err, ErrCorrupt) || shards != nil {
		t.Fatalf("corrupt load: %v (shards %v), want ErrCorrupt and no data", err, shards)
	}
	if _, err := os.Stat(path + quarantineExt); err != nil {
		t.Errorf("no quarantine file: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt original still in place: %v", err)
	}
	if entries := st.Entries(); len(entries) != 0 {
		t.Errorf("quarantined entry still live: %+v", entries)
	}
	if st.TotalDiskBytes() != 0 {
		t.Errorf("quarantined bytes still counted: %d", st.TotalDiskBytes())
	}
}

// TestStoreCorruptManifest pins that an unreadable or version-skewed
// manifest quarantines and yields an empty store — never a failed
// open.
func TestStoreCorruptManifest(t *testing.T) {
	for _, tc := range []struct{ name, content string }{
		{"garbage", "{not json"},
		{"version skew", `{"version": 99, "datasets": []}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			st, warnings, err := Open(dir)
			if err != nil {
				t.Fatalf("open with corrupt manifest: %v", err)
			}
			if len(warnings) != 1 || !strings.Contains(warnings[0], "quarantined") {
				t.Errorf("warnings: %v", warnings)
			}
			if entries := st.Entries(); len(entries) != 0 {
				t.Errorf("entries from corrupt manifest: %+v", entries)
			}
			if _, err := os.Stat(filepath.Join(dir, manifestName+quarantineExt)); err != nil {
				t.Errorf("manifest not quarantined: %v", err)
			}
			// The store is usable after the quarantine.
			if err := SaveAs(st, meta("fresh", 1), [][]int64{{1}}); err != nil {
				t.Errorf("save after quarantine: %v", err)
			}
		})
	}
}

// TestStoreOrphanSweep pins that a .snap file no manifest entry
// references (e.g. a crash mid-removal or mid-replace) is swept on
// the next Open instead of leaking disk forever.
func TestStoreOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	if err := SaveAs(st, meta("live", 1), [][]int64{{1}}); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "ghost.snap")
	if err := os.WriteFile(orphan, Encode(Header{}, [][]int64{{2}}), 0o644); err != nil {
		t.Fatal(err)
	}

	st, warnings, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "orphaned") {
		t.Errorf("warnings: %v, want the orphan sweep", warnings)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("orphan survives Open: %v", err)
	}
	if _, _, _, err := LoadAs[int64](st, "live"); err != nil {
		t.Errorf("referenced snapshot swept with the orphan: %v", err)
	}
}

// TestStoreRefreshMeta pins the batched metadata commit: matching-gen
// entries get their TTL state updated in one manifest write, absent
// or gen-skewed ones are skipped untouched, and an entry keeps the
// Options its file's header holds.
func TestStoreRefreshMeta(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	if err := SaveAs(st, meta("a", 1), [][]int64{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveAs(st, meta("b", 2), [][]int64{{2}}); err != nil {
		t.Fatal(err)
	}

	ma, mb, mc := meta("a", 1), meta("b", 99), meta("c", 1)
	ma.ExpiresUnixMS, mb.ExpiresUnixMS, mc.ExpiresUnixMS = 111, 222, 333
	ma.Options = "other"
	if err := st.RefreshMeta([]Meta{ma, mb, mc}); err != nil {
		t.Fatal(err)
	}

	// Durable: read back through a fresh Open.
	st = open(t, dir)
	got, ok := st.Meta("a")
	if !ok || got.ExpiresUnixMS != 111 || got.File != "a.snap" || got.DiskBytes == 0 || got.Options != "fp" {
		t.Errorf("refreshed entry a: %+v", got)
	}
	if got, _ := st.Meta("b"); got.ExpiresUnixMS == 222 {
		t.Errorf("gen-skewed refresh was applied: %+v", got)
	}
	if _, ok := st.Meta("c"); ok {
		t.Error("refresh invented an entry for an absent id")
	}
	// The refresh never touched the data files.
	if _, shards, _, err := LoadAs[int64](st, "a"); err != nil || !slices.Equal(shards[0], []int64{1}) {
		t.Errorf("data after refresh: %v %v", shards, err)
	}
}

// TestStoreUnsafeIDs pins that the store never constructs paths from
// ids outside the daemon's [A-Za-z0-9._-] alphabet, and drops
// manifest entries that smuggle one in.
func TestStoreUnsafeIDs(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	for _, id := range []string{"", "a/b", "..", ".", "a b", strings.Repeat("x", 300)} {
		if err := SaveAs(st, meta(id, 1), [][]int64{{1}}); err == nil {
			t.Errorf("Save accepted unsafe id %q", id)
		}
	}
	// A hand-edited manifest smuggling a path: the entry is dropped on
	// open with a warning.
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"version":1,"datasets":[{"id":"../evil","file":"../evil.snap"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, warnings, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Entries()) != 0 || len(warnings) == 0 {
		t.Errorf("unsafe manifest entry survived: %+v (warnings %v)", st2.Entries(), warnings)
	}
}

// TestStoreKeyTypes pins that every key type persists and restores
// through the same store, with the manifest stamped from K, and that a
// key-type disagreement — the reader against the manifest, or the file
// header against both — is an ErrKeyType refusal that leaves the file
// and its entry in place: the snapshot is intact, only the reader is
// wrong.
func TestStoreKeyTypes(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	words := [][]string{{"pear", ""}, {"\xff"}}
	if err := SaveAs(st, meta("s", 1), words); err != nil {
		t.Fatal(err)
	}
	if err := SaveAs(st, meta("f", 1), [][]float64{{0.5}, {-1, 2}}); err != nil {
		t.Fatal(err)
	}
	st = open(t, dir)
	h, got, m, err := LoadAs[string](st, "s")
	if err != nil {
		t.Fatal(err)
	}
	if h.KeyType != KeyTypeString || m.KeyType != KeyTypeString ||
		!slices.Equal(got[0], words[0]) || !slices.Equal(got[1], words[1]) {
		t.Fatalf("string load: header %+v meta %+v shards %q", h, m, got)
	}

	// The reader disagrees with the manifest.
	if _, _, _, err := LoadAs[int64](st, "s"); !errors.Is(err, ErrKeyType) {
		t.Errorf("int64 reader of a string entry: %v, want ErrKeyType", err)
	}
	// The file header disagrees with the manifest: a string snapshot
	// under a float64 entry's file name.
	if err := os.WriteFile(filepath.Join(dir, "f.snap"), Encode(Header{}, words), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, shards, _, err := LoadAs[float64](st, "f"); !errors.Is(err, ErrKeyType) || shards != nil {
		t.Errorf("float64 entry holding a string file: %v (shards %v), want ErrKeyType", err, shards)
	}
	if _, err := os.Stat(filepath.Join(dir, "f.snap"+quarantineExt)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("key-type mismatch quarantined the file: %v", err)
	}
	if len(st.Entries()) != 2 {
		t.Errorf("key-type mismatch dropped an entry: %+v", st.Entries())
	}
}
