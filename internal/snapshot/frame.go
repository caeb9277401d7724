package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The result frame: the bulk-results half of the daemon's binary wire
// protocol (the upload half is the snapshot format itself). A frame
// carries one or more query results, each split into a small opaque
// metadata blob (JSON at the serving layer — scalar values, reports,
// per-item errors, whose float fields survive JSON bit-identically)
// and a flat int64 values section holding the heavy part in eight
// bytes a key. The framing reuses the snapshot discipline: magic,
// version, little-endian length prefixes, CRC-32C per section,
// trailing garbage fatal, typed errors (ErrBadMagic / ErrVersion /
// ErrCorrupt), and DecodeFrame never panics and never returns entries
// from corrupted input.
//
//	magic    8 bytes "PSELFRME"
//	version  uint32 (currently FrameVersion)
//	count    uint32 entry count
//	entries  count times:
//	  meta    uint32 length, payload, uint32 CRC-32C of the payload
//	  values  uint64 length (8 bytes a key), keys little-endian, CRC
const (
	frameMagic = "PSELFRME"
	// FrameVersion is the current frame format version.
	FrameVersion = 1

	// maxFrameEntries bounds the entry count a frame may claim — far
	// above any real batch, far below an allocation risk.
	maxFrameEntries = 1 << 16
	// maxFrameMetaLen bounds one entry's metadata blob.
	maxFrameMetaLen = 1 << 20
)

// FrameEntry is one result inside a frame: the opaque metadata bytes
// and the values they describe. An empty Values section is encoded
// (and decoded) as length zero; whether "no values" means null or []
// is the metadata's business, so the JSON layer's distinction survives
// the binary wire exactly.
type FrameEntry struct {
	Meta   []byte
	Values []int64
}

// FrameSize is the exact byte length WriteFrameTo will produce.
func FrameSize(entries []FrameEntry) int64 {
	size := int64(len(frameMagic)) + 4 + 4 // magic + version + count
	for _, e := range entries {
		size += 4 + int64(len(e.Meta)) + 4     // meta section
		size += 8 + 8*int64(len(e.Values)) + 4 // values section
	}
	return size
}

// WriteFrameTo streams one frame into w, returning the bytes written.
// Values CRCs are computed incrementally over fixed-size chunks, so a
// large result set is never materialized a second time on its way out.
func WriteFrameTo(w io.Writer, entries []FrameEntry) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	bw.WriteString(frameMagic)
	writeU32(bw, FrameVersion)
	writeU32(bw, uint32(len(entries)))
	const chunkKeys = 8192
	buf := make([]byte, 0, 8*chunkKeys)
	for _, e := range entries {
		writeU32(bw, uint32(len(e.Meta)))
		bw.Write(e.Meta)
		writeU32(bw, crc32.Checksum(e.Meta, castagnoli))

		writeU64(bw, uint64(8*len(e.Values)))
		sum := uint32(0)
		for off := 0; off < len(e.Values); off += chunkKeys {
			end := min(off+chunkKeys, len(e.Values))
			buf = buf[:0]
			for _, k := range e.Values[off:end] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
			}
			sum = crc32.Update(sum, castagnoli, buf)
			bw.Write(buf)
		}
		writeU32(bw, sum)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// EncodeFrame is WriteFrameTo into a fresh byte slice.
func EncodeFrame(entries []FrameEntry) []byte {
	var buf bytes.Buffer
	WriteFrameTo(&buf, entries) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// DecodeFrame parses one frame. Like DecodeAs it never panics, bounds
// every claimed length against the bytes actually present before
// allocating, verifies every CRC, rejects trailing garbage, and on any
// failure returns a typed error (ErrBadMagic, ErrVersion, ErrCorrupt)
// and no entries.
func DecodeFrame(data []byte) ([]FrameEntry, error) {
	r := &reader{data: data}
	mg, err := r.take(len(frameMagic))
	if err != nil || string(mg) != frameMagic {
		return nil, fmt.Errorf("%w (%d bytes, not a parsel result frame)", ErrBadMagic, len(data))
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != FrameVersion {
		return nil, fmt.Errorf("%w: frame version %d, reader version %d",
			ErrVersion, ver, FrameVersion)
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if count > maxFrameEntries {
		return nil, fmt.Errorf("%w: frame claims %d entries, limit %d",
			ErrCorrupt, count, maxFrameEntries)
	}
	entries := make([]FrameEntry, 0, min(int(count), len(data)/8))
	for i := uint32(0); i < count; i++ {
		meta, err := r.section("meta", false, maxFrameMetaLen, -1)
		if err != nil {
			return nil, err
		}
		body, err := r.section("values", true, int64(len(data)), -1)
		if err != nil {
			return nil, err
		}
		if len(body)%8 != 0 {
			return nil, fmt.Errorf("%w: values section of %d bytes is not a whole number of keys",
				ErrCorrupt, len(body))
		}
		var vals []int64
		if len(body) > 0 {
			vals = make([]int64, len(body)/8)
			for k := range vals {
				vals[k] = int64(binary.LittleEndian.Uint64(body[8*k:]))
			}
		}
		entries = append(entries, FrameEntry{Meta: meta, Values: vals})
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last entry",
			ErrCorrupt, len(data)-r.off)
	}
	return entries, nil
}

// countWriter counts the bytes reaching the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func writeU32(w io.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}
