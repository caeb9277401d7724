package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The result frame: the bulk-results half of the daemon's binary wire
// protocol (the upload half is the snapshot format itself). A frame
// carries one or more query results, each split into a small opaque
// metadata blob (JSON at the serving layer — scalar values, reports,
// per-item errors, whose float fields survive JSON bit-identically)
// and a flat values section holding the heavy part in eight bytes a
// key, int64 or float64 as the result's kind. The frame is a second
// layout over the snapshot's section codec: NewFrameReader is the same
// Reader with one key section per entry, serving the values from their
// memory, and DecodeFrame runs on the snapshot decoder's streamReader,
// reading each values section straight into place. So both formats
// share one discipline: magic, version, little-endian length prefixes,
// CRC-32C per section, trailing garbage fatal, typed errors
// (ErrBadMagic / ErrVersion / ErrCorrupt), and DecodeFrame never panics
// and never returns entries from corrupted input.
//
//	magic    8 bytes "PSELFRME"
//	version  uint32 (currently FrameVersion)
//	count    uint32 entry count
//	entries  count times:
//	  meta    uint32 length, payload, uint32 CRC-32C of the payload
//	  values  uint64 length (8 bytes a key), keys little-endian, CRC
//
// The values' kind is not on the wire: the reader names it, as the
// request that asked for the frame did.
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
type FrameEntry[K FixedKey] struct {
	Meta   []byte
	Values []K
}

// NewFrameReader returns the encoder of entries as one frame. The
// metadata is copied into the heads; the values are served from their
// memory and must not change until the reader is drained.
func NewFrameReader[K FixedKey](entries []FrameEntry[K]) *Reader[K] {
	size := len(frameMagic) + 4 + 4
	for _, e := range entries {
		size += 4 + len(e.Meta) + 4 + 8 + 4 // meta section, values length and CRC
	}
	buf := make([]byte, 0, size)
	buf = append(buf, frameMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, FrameVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	heads := make([][]byte, 0, len(entries)+1)
	values := make([][]K, len(entries))
	sections := make([][][]K, len(entries))
	var keyBytes int64
	start := 0
	for i, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Meta)))
		buf = append(buf, e.Meta...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(e.Meta, castagnoli))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(8*len(e.Values)))
		heads = append(heads, buf[start:])
		start = len(buf)
		buf = append(buf, 0, 0, 0, 0) // the values CRC
		values[i] = e.Values
		sections[i] = values[i : i+1]
		keyBytes += 8 * int64(len(e.Values))
	}
	return newReader(append(heads, buf[start:]), sections, keyBytes)
}

// EncodeFrame is the frame of entries as one byte slice.
func EncodeFrame[K FixedKey](entries []FrameEntry[K]) []byte {
	return NewFrameReader(entries).bytes()
}

// DecodeFrame parses one frame whose values are K keys. Like DecodeAs
// it never panics, bounds every claimed length against the bytes
// actually present before allocating, verifies every CRC, rejects
// trailing garbage, and on any failure returns a typed error
// (ErrBadMagic, ErrVersion, ErrCorrupt) and no entries.
func DecodeFrame[K FixedKey](data []byte) ([]FrameEntry[K], error) {
	sr := &streamReader{r: bytes.NewReader(data), budget: int64(len(data))}
	var mg [len(frameMagic)]byte
	if err := sr.read("magic", mg[:]); err != nil || string(mg[:]) != frameMagic {
		return nil, fmt.Errorf("%w (%d bytes, not a parsel result frame)", ErrBadMagic, len(data))
	}
	ver, err := sr.u32("frame version")
	if err != nil {
		return nil, err
	}
	if ver != FrameVersion {
		return nil, fmt.Errorf("%w: frame version %d, reader version %d",
			ErrVersion, ver, FrameVersion)
	}
	count, err := sr.u32("entry count")
	if err != nil {
		return nil, err
	}
	if count > maxFrameEntries {
		return nil, fmt.Errorf("%w: frame claims %d entries, limit %d",
			ErrCorrupt, count, maxFrameEntries)
	}
	entries := make([]FrameEntry[K], 0, min(int(count), len(data)/8))
	for range count {
		meta, err := sr.section32("meta", maxFrameMetaLen, -1)
		if err != nil {
			return nil, err
		}
		claimed, err := sr.u64("values length")
		if err != nil {
			return nil, err
		}
		if claimed > uint64(sr.budget) || claimed%8 != 0 {
			return nil, fmt.Errorf("%w: values section claims %d bytes, %d remain",
				ErrCorrupt, claimed, sr.budget)
		}
		var vals []K
		if claimed > 0 {
			vals = make([]K, claimed/8)
		}
		if err := readKeys(sr, "values", vals); err != nil {
			return nil, err
		}
		entries = append(entries, FrameEntry[K]{Meta: meta, Values: vals})
	}
	if sr.budget != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last entry", ErrCorrupt, sr.budget)
	}
	return entries, nil
}
