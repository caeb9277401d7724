// Package snapshot is the durable on-disk form of the daemon's
// resident datasets: a versioned binary snapshot format for one
// dataset's per-processor shards (snapshot.go) and an atomic
// crash-safe store of snapshot files with a manifest of the live set
// (store.go).
//
// # File format
//
// A snapshot file is a sequence of CRC-checksummed sections, every
// multi-byte integer little-endian:
//
//	magic    8 bytes "PSELSNAP"
//	version  uint32 (currently 1)
//	header   uint32 length, payload, uint32 CRC-32C of the payload
//	extents  uint32 length, one uint64 shard length per processor, CRC
//	data     uint64 length, the keys of every shard concatenated, CRC
//
// An int64 key is its 8 two's-complement bytes and a float64 key its 8
// IEEE-754 bytes; a string key is a uint32 byte length followed by the
// bytes. The header payload carries the key type (length-prefixed
// string, so a float64 reader cannot silently misread an int64
// snapshot),
// a fingerprint of the pool Options the daemon ran (informational —
// restoring under different Options still answers queries correctly,
// it just changes which algorithm serves them), the processor count
// and the population size. The extents section pins how the flat data
// section re-shards into per-processor slices, so a restored dataset
// is bit-identical to the resident original: same shards, same machine
// shape, no re-sharding.
//
// Every encode runs through one encoder, Reader: a client's binary
// upload pulls it as the request body, and the store's SaveAs and the
// daemon's snapshot export have it write itself out (WriteTo and
// Encode are shorthands for it). It knows its exact Size before a byte
// is served, and on a little-endian host it serves int64 and float64
// keys straight from their memory, which is already their data-section
// encoding; string keys are staged through one reused chunk.
//
// The daemon's result frame (frame.go) is a second layout over the same
// codec: NewFrameReader is this encoder with one key section per
// result, and DecodeFrame runs on the stream decoder's section reader,
// reading each values section straight into place. Both binary formats
// therefore have one encoder and one decoder.
//
// A snapshot file need not come from an encode. A binary upload
// arrives in this same format, and the daemon spools it (Spool,
// StreamDecoder.CopyTo): a fresh prologue under its own Options
// fingerprint, then the upload's extents and data sections verbatim as
// the decoder verifies them. Since every section's bytes are a function
// of the decoded shards alone, the spooled file is byte-identical to
// what Reader encodes for them.
//
// Decoding never panics and never returns data from a corrupted,
// truncated or bit-flipped file: every section is length-bounded
// against the bytes actually present before anything is allocated,
// CRCs are verified per section, and trailing garbage is an error.
// Failures are typed — ErrBadMagic, ErrVersion, ErrKeyType, ErrCorrupt
// — so callers can distinguish "not a snapshot" from "damaged
// snapshot" from "future format".
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Typed decode failures. Every decode error matches exactly one of
// these under errors.Is.
var (
	// ErrBadMagic: the bytes are not a parsel snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic (not a parsel snapshot)")
	// ErrVersion: the snapshot was written by an unknown (newer or
	// retired) format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrKeyType: the snapshot holds keys of a different type than the
	// reader decodes.
	ErrKeyType = errors.New("snapshot: key type mismatch")
	// ErrCorrupt: the snapshot is truncated, oversized, or fails a
	// structural or CRC check.
	ErrCorrupt = errors.New("snapshot: corrupt or truncated snapshot")
)

const (
	magic = "PSELSNAP"
	// Version is the current format version Encode writes.
	Version = 1
	// KeyTypeInt64 and KeyTypeFloat64 are the fixed-width key types;
	// both use 8 bytes a key (float64 keys are stored as their IEEE-754
	// bit patterns), so the header's key-type field is what keeps a
	// float64 reader from silently misreading an int64 snapshot and vice
	// versa. KeyTypeString keys are length-prefixed byte strings.
	KeyTypeInt64   = "int64"
	KeyTypeFloat64 = "float64"
	KeyTypeString  = "string"

	// maxHeaderLen bounds the header section so a corrupt length field
	// cannot drive a huge allocation before the CRC is checked.
	maxHeaderLen = 1 << 16
	// maxProcs bounds the processor count a decoded header may claim;
	// far above any real machine shape, far below an allocation risk.
	maxProcs = 1 << 20
)

// castagnoli is the CRC-32C table shared by every section checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Key is the set of key types a snapshot can hold.
type Key interface {
	int64 | float64 | string
}

// FixedKey is the subset of Key with a fixed 8-byte encoding.
type FixedKey interface {
	int64 | float64
}

// KeyTypeFor returns the header key-type name for K.
func KeyTypeFor[K Key]() string {
	var z K
	switch any(z).(type) {
	case float64:
		return KeyTypeFloat64
	case string:
		return KeyTypeString
	default:
		return KeyTypeInt64
	}
}

// minKeyBytes is the fewest data-section bytes one key of the named
// type occupies: 8 for the fixed-width types, the 4-byte length prefix
// of an empty string.
func minKeyBytes(keyType string) int64 {
	if keyType == KeyTypeString {
		return 4
	}
	return 8
}

// appendKeys appends the data-section encodings of keys: int64 as its
// two's-complement bits, float64 as its IEEE-754 bits, string as a
// uint32 byte length and the bytes.
func appendKeys[K Key](buf []byte, keys []K) []byte {
	switch ks := any(keys).(type) {
	case []int64:
		for _, k := range ks {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
		}
	case []float64:
		for _, k := range ks {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(k))
		}
	case []string:
		for _, k := range ks {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
			buf = append(buf, k...)
		}
	}
	return buf
}

// dataSize counts the keys of shards and the data section's payload
// bytes: 8 a fixed-width key, 4 plus its length a string key. A string
// longer than a uint32 can count is an error.
func dataSize[K Key](shards [][]K) (n, size int64, err error) {
	for _, sh := range shards {
		n += int64(len(sh))
	}
	ss, ok := any(shards).([][]string)
	if !ok {
		return n, 8 * n, nil
	}
	size = 4 * n
	for _, sh := range ss {
		for _, k := range sh {
			if int64(len(k)) > math.MaxUint32 {
				return n, 0, fmt.Errorf("snapshot: string key of %d bytes exceeds the 4 GiB key limit", len(k))
			}
			size += int64(len(k))
		}
	}
	return n, size, nil
}

// littleEndian reports whether the host lays an 8-byte key out in
// memory in the data section's byte order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// keyBytes views fixed-width keys as their data-section bytes, which on
// a little-endian host are exactly their memory, so a decode can read
// the section straight into place. It returns nil for string keys, for
// no keys, and on a big-endian host.
func keyBytes[K Key](keys []K) []byte {
	if !littleEndian || len(keys) == 0 {
		return nil
	}
	switch ks := any(keys).(type) {
	case []int64:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ks))), 8*len(ks))
	case []float64:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ks))), 8*len(ks))
	}
	return nil
}

// decodeKeyBits fills dst from len(dst) consecutive 8-byte encodings in
// src, the inverse of appendKeys for the fixed-width types.
func decodeKeyBits[K Key](dst []K, src []byte) {
	switch ds := any(dst).(type) {
	case []int64:
		for i := range ds {
			ds[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float64:
		for i := range ds {
			ds[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// Header describes one snapshot independent of its key data.
type Header struct {
	// KeyType names the element type of the shards (KeyTypeInt64,
	// KeyTypeFloat64 or KeyTypeString).
	KeyType string
	// Options fingerprints the pool configuration the snapshot was
	// taken under (informational; see the package comment).
	Options string
	// Procs is the machine shape: one shard per simulated processor.
	Procs int
	// N is the population size across all shards.
	N int64
}

// chunkBytes is the most key-section bytes the encoder hands on at
// once: a view of fixed-width keys in place, or one fill of the staging
// chunk.
const chunkBytes = 1 << 16

// Reader is the one encoder of both binary formats: it serves a
// snapshot (NewReader) or a result frame (NewFrameReader) as bytes,
// through Read to a consumer that pulls (an HTTP request body) or
// WriteTo to a writer (a file, an HTTP response). An encoding is a run
// of heads and key sections, heads[0] sections[0] heads[1] ...
// sections[n-1] heads[n]: every byte but the keys and their CRCs is
// built into the heads up front, each head ending in the length of the
// key section after it, and each key section's CRC-32C, computed over
// its pieces as they are emitted, fills the first four bytes of the
// head that follows it. A snapshot is one key section (the data
// section, every shard); a frame has one per entry (its values). On a
// little-endian host int64 and float64 keys are served straight from
// their memory, which already is their encoding; string keys, and
// fixed-width keys on a big-endian host, are staged through one reused
// chunk of chunkBytes, and a string key longer than that chunk is
// served in place after its staged length prefix. The caller's slices
// are only read and must not change until the reader is drained. A
// Reader is single-use.
type Reader[K Key] struct {
	heads    [][]byte
	sections [][][]K
	size     int64
	cur      []byte // the unserved rest of the piece being emitted
	sec      int    // sections[sec][shard][key] is the next key to emit
	shard    int
	key      int
	long     []byte // a string key's bytes, due after its staged prefix
	chunk    []byte // the staging buffer, allocated on first use
	sum      uint32 // CRC-32C of the section's bytes emitted so far
}

// newReader returns the encoder of heads interleaved with sections
// (len(heads) == len(sections)+1), whose keys encode to keyBytes.
func newReader[K Key](heads [][]byte, sections [][][]K, keyBytes int64) *Reader[K] {
	size := keyBytes
	for _, h := range heads {
		size += int64(len(h))
	}
	return &Reader[K]{heads: heads, sections: sections, size: size, cur: heads[0]}
}

// NewReader returns the encoder of shards as a snapshot.
// Header.KeyType, Procs and N are derived from the arguments (the key
// type from K); only Options is taken from h. A dataset the format
// cannot hold (a string key of 4 GiB or more) fails here, before a
// byte is served.
func NewReader[K Key](h Header, shards [][]K) (*Reader[K], error) {
	n, size, err := dataSize(shards)
	if err != nil {
		return nil, err
	}
	head := appendPrologue(make([]byte, 0, 100+len(h.Options)+8*len(shards)), Header{
		KeyType: KeyTypeFor[K](), Options: h.Options, Procs: len(shards), N: n,
	})
	head = binary.LittleEndian.AppendUint32(head, uint32(8*len(shards)))
	ext := len(head)
	for _, sh := range shards {
		head = binary.LittleEndian.AppendUint64(head, uint64(len(sh)))
	}
	head = binary.LittleEndian.AppendUint32(head, crc32.Checksum(head[ext:], castagnoli))
	head = binary.LittleEndian.AppendUint64(head, uint64(size))
	end := len(head)
	head = append(head, 0, 0, 0, 0) // the data CRC
	return newReader([][]byte{head[:end], head[end:]}, [][][]K{shards}, size), nil
}

// Size is the exact byte length of the encoding: the Content-Length of
// an upload, an export or a frame response, known before a byte is
// served.
func (r *Reader[K]) Size() int64 { return r.size }

// Read serves the next bytes of the encoding, at most the rest of one
// piece; after the last byte it returns io.EOF.
func (r *Reader[K]) Read(p []byte) (int, error) {
	if len(r.cur) == 0 && !r.advance() {
		return 0, io.EOF
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// WriteTo writes the rest of the encoding to w, one piece per Write,
// and returns the bytes written.
func (r *Reader[K]) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for len(r.cur) > 0 || r.advance() {
		n, err := w.Write(r.cur)
		total += int64(n)
		r.cur = r.cur[n:]
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// bytes drains the encoding into one byte slice.
func (r *Reader[K]) bytes() []byte {
	var buf bytes.Buffer
	buf.Grow(int(r.size))
	r.WriteTo(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// advance makes cur the next piece of the encoding: a piece of the
// current key section, or, once the section has ended, the next head
// opened by the section's CRC. It reports false once the encoding has
// ended.
func (r *Reader[K]) advance() bool {
	if r.sec == len(r.sections) {
		return false
	}
	if b := r.data(); len(b) > 0 {
		r.sum = crc32.Update(r.sum, castagnoli, b)
		r.cur = b
		return true
	}
	r.sec++
	r.cur = r.heads[r.sec]
	binary.LittleEndian.PutUint32(r.cur, r.sum)
	r.sum, r.shard, r.key = 0, 0, 0
	return true
}

// data returns the next piece of the current key section, empty at its
// end.
func (r *Reader[K]) data() []byte {
	if b := r.long; b != nil {
		r.long = nil
		return b
	}
	shards := r.sections[r.sec]
	for r.shard < len(shards) && r.key == len(shards[r.shard]) {
		r.shard, r.key = r.shard+1, 0
	}
	if r.shard == len(shards) {
		return nil
	}
	sh := shards[r.shard]
	if raw := keyBytes(sh); raw != nil {
		end := min(len(sh), r.key+chunkBytes/8)
		b := raw[8*r.key : 8*end]
		r.key = end
		return b
	}
	return r.stage(shards)
}

// stage encodes the next keys of shards, across shard boundaries, into
// the chunk until the next one does not fit. A string key too long for
// an empty chunk stages only its length prefix and leaves its bytes in
// r.long.
func (r *Reader[K]) stage(shards [][]K) []byte {
	if r.chunk == nil {
		r.chunk = make([]byte, 0, chunkBytes)
	}
	buf := r.chunk[:0]
	for ; r.shard < len(shards); r.shard, r.key = r.shard+1, 0 {
		keys := shards[r.shard][r.key:]
		n := fit(keys, chunkBytes-len(buf))
		buf = appendKeys(buf, keys[:n])
		r.key += n
		if n == len(keys) {
			continue
		}
		if len(buf) == 0 {
			s := any(keys[0]).(string) // only a string key outgrows a chunk
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			r.long = unsafe.Slice(unsafe.StringData(s), len(s))
			r.key++
		}
		break
	}
	r.chunk = buf
	return buf
}

// fit counts the leading keys whose encodings fit in room bytes.
func fit[K Key](keys []K, room int) int {
	ss, ok := any(keys).([]string)
	if !ok {
		return min(len(keys), room/8)
	}
	for i, s := range ss {
		if room -= 4 + len(s); room < 0 {
			return i
		}
	}
	return len(ss)
}

// WriteTo writes shards to w as a snapshot through a Reader, returning
// the bytes written.
func WriteTo[K Key](w io.Writer, h Header, shards [][]K) (int64, error) {
	r, err := NewReader(h, shards)
	if err != nil {
		return 0, err
	}
	return r.WriteTo(w)
}

// appendPrologue appends the magic, the version and the header section
// describing h: every byte of a snapshot before its extents section.
func appendPrologue(b []byte, h Header) []byte {
	hdr := make([]byte, 0, 64)
	hdr = appendString(hdr, h.KeyType)
	hdr = appendString(hdr, h.Options)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(h.Procs))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(h.N))

	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(hdr, castagnoli))
}

// Encode is the snapshot of shards as one byte slice, for tests and
// small snapshots; nil when NewReader refuses the shards.
func Encode[K Key](h Header, shards [][]K) []byte {
	r, err := NewReader(h, shards)
	if err != nil {
		return nil
	}
	return r.bytes()
}

// appendString appends a uint16-length-prefixed string.
func appendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// streamReader feeds both decoders (StreamDecoder, DecodeFrame) with
// budgeted, bounds-checked reads:
// every claim is charged against the remaining byte budget before
// anything is read or allocated, every truncation is ErrCorrupt, and a
// genuine I/O failure of the underlying reader (a network fault, an
// http.MaxBytesReader tripping) propagates unmasked so transport-aware
// callers can tell it apart from corruption.
type streamReader struct {
	r       io.Reader
	budget  int64
	scratch [8]byte
	// copy, when set, receives every byte a read returns (see
	// StreamDecoder.CopyTo); its write errors are its own.
	copy io.Writer
}

func (sr *streamReader) read(what string, buf []byte) error {
	if int64(len(buf)) > sr.budget {
		return fmt.Errorf("%w: %s needs %d bytes beyond the byte bound",
			ErrCorrupt, what, len(buf))
	}
	n, err := io.ReadFull(sr.r, buf)
	sr.budget -= int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: %s truncated", ErrCorrupt, what)
		}
		return fmt.Errorf("snapshot: read %s: %w", what, err)
	}
	if sr.copy != nil {
		sr.copy.Write(buf)
	}
	return nil
}

func (sr *streamReader) u32(what string) (uint32, error) {
	if err := sr.read(what, sr.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(sr.scratch[:4]), nil
}

func (sr *streamReader) u64(what string) (uint64, error) {
	if err := sr.read(what, sr.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(sr.scratch[:8]), nil
}

// str reads a uint16-length-prefixed string.
func (sr *streamReader) str(what string) (string, error) {
	if err := sr.read(what+" length", sr.scratch[:2]); err != nil {
		return "", err
	}
	b := make([]byte, binary.LittleEndian.Uint16(sr.scratch[:2]))
	if err := sr.read(what, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// section32 reads one uint32-length-prefixed section and verifies its
// CRC; claims beyond maxLen, wantLen (when >= 0) or the remaining
// budget never allocate.
func (sr *streamReader) section32(name string, maxLen, wantLen int64) ([]byte, error) {
	n, err := sr.u32(name + " length")
	if err != nil {
		return nil, err
	}
	claimed := int64(n)
	if claimed > maxLen || claimed > sr.budget || (wantLen >= 0 && claimed != wantLen) {
		return nil, fmt.Errorf("%w: %s section claims %d bytes (limit %d, want %d)",
			ErrCorrupt, name, claimed, min(maxLen, sr.budget), wantLen)
	}
	payload := make([]byte, claimed)
	if err := sr.read(name+" payload", payload); err != nil {
		return nil, err
	}
	if err := sr.checkCRC(name, crc32.Checksum(payload, castagnoli)); err != nil {
		return nil, err
	}
	return payload, nil
}

// checkCRC reads a section's stored CRC and compares it with sum, the
// CRC of the payload read.
func (sr *streamReader) checkCRC(name string, sum uint32) error {
	stored, err := sr.u32(name + " CRC")
	if err != nil {
		return err
	}
	if stored != sum {
		return fmt.Errorf("%w: %s section CRC mismatch (stored %08x, computed %08x)",
			ErrCorrupt, name, stored, sum)
	}
	return nil
}

// readKeys reads a fixed-width key section's payload, 8 bytes a key,
// into keys and verifies the CRC that follows it. On a little-endian
// host the payload is the keys' memory, so each chunk is read straight
// into place; elsewhere it is read into a chunk buffer and decoded.
// After a failure the keys hold unverified bytes and must not be used.
func readKeys[K Key](sr *streamReader, name string, keys []K) error {
	want := 8 * int64(len(keys))
	raw, buf := keyBytes(keys), []byte(nil)
	if raw == nil {
		buf = make([]byte, min(want, chunkBytes))
	}
	sum := uint32(0)
	for off := int64(0); off < want; off += chunkBytes {
		end := min(off+chunkBytes, want)
		var b []byte
		if raw != nil {
			b = raw[off:end]
		} else {
			b = buf[:end-off]
		}
		if err := sr.read(name, b); err != nil {
			return err
		}
		sum = crc32.Update(sum, castagnoli, b)
		if raw == nil {
			decodeKeyBits(keys[off/8:end/8], b)
		}
	}
	return sr.checkCRC(name, sum)
}

// end requires a clean end of stream after the data section.
func (sr *streamReader) end() error {
	var tail [1]byte
	switch _, err := io.ReadFull(sr.r, tail[:]); err {
	case io.EOF:
		return nil // clean end of stream
	case nil:
		return fmt.Errorf("%w: trailing bytes after the data section", ErrCorrupt)
	default:
		return fmt.Errorf("snapshot: read trailer: %w", err)
	}
}

// StreamDecoder decodes the snapshot format incrementally from a
// reader. Construction consumes and validates the prologue — magic,
// version, the CRC-checked header section — so a serving layer can
// admit an upload against its resident budget (Header.N keys are
// coming) before ReadDataAs streams the keys into place; nothing ever
// materializes the whole input. DecodeAs and the store's LoadAs run on
// this same decoder, so a restored snapshot and a streamed binary
// upload share one decode path and one set of corruption guarantees.
//
// maxBytes bounds every length claim and allocation. Pass the source's
// true size when known (a file, a byte slice), or the transport's body
// limit for a network stream.
type StreamDecoder struct {
	sr  streamReader
	max int64
	h   Header
}

// NewStreamDecoder reads the prologue and returns a decoder ready for
// ReadDataAs. Failures are the same typed errors DecodeAs returns.
func NewStreamDecoder(r io.Reader, maxBytes int64) (*StreamDecoder, error) {
	d := &StreamDecoder{sr: streamReader{r: r, budget: maxBytes}, max: maxBytes}
	var mg [len(magic)]byte
	if int64(len(mg)) > d.sr.budget {
		return nil, fmt.Errorf("%w (%d-byte bound)", ErrBadMagic, maxBytes)
	}
	n, err := io.ReadFull(d.sr.r, mg[:])
	d.sr.budget -= int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w (truncated after %d bytes)", ErrBadMagic, n)
		}
		return nil, fmt.Errorf("snapshot: read magic: %w", err)
	}
	if string(mg[:]) != magic {
		return nil, ErrBadMagic
	}
	ver, err := d.sr.u32("version")
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: file version %d, reader version %d", ErrVersion, ver, Version)
	}
	payload, err := d.sr.section32("header", maxHeaderLen, -1)
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(payload)
	if err != nil {
		return nil, err
	}
	if h.KeyType != KeyTypeInt64 && h.KeyType != KeyTypeFloat64 && h.KeyType != KeyTypeString {
		return nil, fmt.Errorf("%w: snapshot holds %q keys, reader decodes %q, %q or %q",
			ErrKeyType, h.KeyType, KeyTypeInt64, KeyTypeFloat64, KeyTypeString)
	}
	if h.Procs < 1 || h.Procs > maxProcs {
		return nil, fmt.Errorf("%w: header claims %d processors", ErrCorrupt, h.Procs)
	}
	if h.N < 0 || h.N > maxBytes/minKeyBytes(h.KeyType) {
		return nil, fmt.Errorf("%w: header claims %d keys within a %d-byte bound",
			ErrCorrupt, h.N, maxBytes)
	}
	d.h = h
	return d, nil
}

// Header describes the dataset the stream carries: validated key type,
// Options fingerprint, machine shape and population size.
func (d *StreamDecoder) Header() Header { return d.h }

// CopyTo makes ReadDataAs copy the extents and data sections to w
// verbatim, length prefixes and CRCs included, as it reads them. The
// sections' CRCs are verified as they pass, so once ReadDataAs succeeds
// w holds exactly the bytes Reader encodes after its prologue for the
// decoded shards; after a failed read w's bytes mean nothing. A failing
// w never fails the decode: it keeps its own error. Call it after
// NewStreamDecoder, before ReadDataAs.
func (d *StreamDecoder) CopyTo(w io.Writer) { d.sr.copy = w }

// ReadDataAs streams the extents and data sections, verifying the
// per-section CRCs and requiring a clean end of stream. The stream's
// key type must match K or the read is refused with ErrKeyType before
// anything is allocated. Fixed-width keys are read in fixed-size
// chunks straight into the backing array's memory on a little-endian
// host (decoded from a chunk buffer elsewhere), never a second copy of
// the population; string
// keys are read whole under the byte budget, CRC-checked, and only
// then cut into substrings of one string conversion of the section
// (one copy, no allocation per key). The returned shards are sliced out
// of a single contiguous backing array — exactly the layout
// parsel.Pool.RestoreDataset adopts without copying. Call it once,
// after NewStreamDecoder. (A package-level function because Go methods
// cannot take type parameters.)
func ReadDataAs[K Key](d *StreamDecoder) ([][]K, error) {
	if want := KeyTypeFor[K](); d.h.KeyType != want {
		return nil, fmt.Errorf("%w: snapshot holds %q keys, reader decodes %q",
			ErrKeyType, d.h.KeyType, want)
	}
	ext, err := d.sr.section32("extents", 8*int64(maxProcs), int64(8*d.h.Procs))
	if err != nil {
		return nil, err
	}
	lens := make([]int64, d.h.Procs)
	var total int64
	for i := range lens {
		l := binary.LittleEndian.Uint64(ext[8*i:])
		if l > uint64(d.h.N) {
			return nil, fmt.Errorf("%w: shard %d claims %d keys of %d total",
				ErrCorrupt, i, l, d.h.N)
		}
		lens[i] = int64(l)
		total += lens[i]
	}
	if total != d.h.N {
		return nil, fmt.Errorf("%w: extents sum to %d keys, header claims %d",
			ErrCorrupt, total, d.h.N)
	}

	claimed, err := d.sr.u64("data length")
	if err != nil {
		return nil, err
	}
	var backing []K
	if ks, ok := any(&backing).(*[]string); ok {
		*ks, err = d.readStrings(claimed)
	} else {
		backing, err = readFixed[K](d, claimed)
	}
	if err != nil {
		return nil, err
	}

	shards := make([][]K, d.h.Procs)
	off := int64(0)
	for i, l := range lens {
		end := off + l
		shards[i] = backing[off:end:end]
		off = end
	}
	return shards, nil
}

// readFixed streams a fixed-width data section of claimed bytes into
// a fresh backing array of N keys, then checks the CRC and the end of
// the stream. A corrupt section fails before the array is returned, so
// bytes read into place unverified are never seen.
func readFixed[K Key](d *StreamDecoder, claimed uint64) ([]K, error) {
	if claimed != uint64(8*d.h.N) || int64(claimed) > d.sr.budget {
		return nil, fmt.Errorf("%w: data section claims %d bytes, header needs %d",
			ErrCorrupt, claimed, 8*d.h.N)
	}
	backing := make([]K, d.h.N)
	if err := readKeys(&d.sr, "data", backing); err != nil {
		return nil, err
	}
	if err := d.sr.end(); err != nil {
		return nil, err
	}
	return backing, nil
}

// readStrings reads a string data section of claimed bytes whole,
// checks its CRC and the end of the stream, and only then cuts it into
// N keys: substrings of one conversion of the section. The section
// must hold exactly N length-prefixed keys.
func (d *StreamDecoder) readStrings(claimed uint64) ([]string, error) {
	if claimed < uint64(4*d.h.N) || claimed > uint64(d.sr.budget) {
		return nil, fmt.Errorf("%w: data section claims %d bytes, header needs at least %d",
			ErrCorrupt, claimed, 4*d.h.N)
	}
	payload := make([]byte, claimed)
	if err := d.sr.read("data", payload); err != nil {
		return nil, err
	}
	if err := d.sr.checkCRC("data", crc32.Checksum(payload, castagnoli)); err != nil {
		return nil, err
	}
	if err := d.sr.end(); err != nil {
		return nil, err
	}
	all := string(payload)
	keys := make([]string, d.h.N)
	off := 0
	for i := range keys {
		if len(all)-off < 4 {
			return nil, fmt.Errorf("%w: string key %d length truncated", ErrCorrupt, i)
		}
		l := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if l > len(all)-off {
			return nil, fmt.Errorf("%w: string key %d claims %d bytes, %d remain",
				ErrCorrupt, i, l, len(all)-off)
		}
		keys[i] = all[off : off+l]
		off += l
	}
	if off != len(all) {
		return nil, fmt.Errorf("%w: %d data bytes after the last string key", ErrCorrupt, len(all)-off)
	}
	return keys, nil
}

// DecodeAs parses one snapshot held fully in memory — NewStreamDecoder
// + ReadDataAs over the byte slice. On success the returned shards are
// freshly allocated out of a single contiguous backing array — exactly
// the layout parsel.Pool.RestoreDataset adopts without copying — and
// the header describes them (Procs == len(shards), N == total
// population). On any corruption — including a key-type mismatch with
// K — the error matches one of the typed failures and no shards are
// returned.
func DecodeAs[K Key](data []byte) (Header, [][]K, error) {
	d, err := NewStreamDecoder(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return Header{}, nil, err
	}
	shards, err := ReadDataAs[K](d)
	if err != nil {
		return Header{}, nil, err
	}
	return d.h, shards, nil
}

// IsDecodeError reports whether err is one of the typed decode
// failures — damaged or alien input, as opposed to an I/O fault of the
// underlying stream. The store quarantines on decode errors only; the
// serving layer maps them to the bad_frame wire code.
func IsDecodeError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
		errors.Is(err, ErrKeyType) || errors.Is(err, ErrCorrupt)
}

// decodeHeader parses the CRC-verified header payload.
func decodeHeader(payload []byte) (Header, error) {
	sr := &streamReader{r: bytes.NewReader(payload), budget: int64(len(payload))}
	var h Header
	var err error
	if h.KeyType, err = sr.str("header key type"); err != nil {
		return Header{}, err
	}
	if h.Options, err = sr.str("header options"); err != nil {
		return Header{}, err
	}
	procs, err := sr.u32("header processor count")
	if err != nil {
		return Header{}, err
	}
	n, err := sr.u64("header population size")
	if err != nil {
		return Header{}, err
	}
	if sr.budget != 0 {
		return Header{}, fmt.Errorf("%w: %d trailing header bytes", ErrCorrupt, sr.budget)
	}
	h.Procs = int(procs)
	h.N = int64(n)
	return h, nil
}
