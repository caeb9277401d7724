package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// testFrames are frame shapes covering the wire's edge cases: empty
// frames, empty metadata, empty values, multi-entry batches, extreme
// keys.
var testFrames = [][]FrameEntry[int64]{
	{},
	{{Meta: []byte(`{"report":{}}`), Values: []int64{3, 1, 4}}},
	{{Meta: nil, Values: nil}},
	{{Meta: []byte(`{}`), Values: []int64{}}},
	{
		{Meta: []byte(`{"value":7,"report":{"sim_seconds":0.25}}`)},
		{Meta: []byte(`{"error":{"code":"rank_range","message":"x"}}`)},
		{Meta: []byte(`{}`), Values: []int64{-9223372036854775808, 9223372036854775807, 0}},
	},
}

// TestFrameRoundTrip pins that DecodeFrame inverts EncodeFrame exactly
// and that the encoding is canonical.
func TestFrameRoundTrip(t *testing.T) {
	for fi, entries := range testFrames {
		t.Run(fmt.Sprintf("frame%d", fi), func(t *testing.T) {
			data := EncodeFrame(entries)
			if got := NewFrameReader(entries).Size(); got != int64(len(data)) {
				t.Errorf("Size %d, encoded %d bytes", got, len(data))
			}
			got, err := DecodeFrame[int64](data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(entries) {
				t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
			}
			for i := range entries {
				if !bytes.Equal(got[i].Meta, entries[i].Meta) {
					t.Errorf("entry %d meta %q, want %q", i, got[i].Meta, entries[i].Meta)
				}
				if !slices.Equal(got[i].Values, entries[i].Values) {
					t.Errorf("entry %d values %v, want %v", i, got[i].Values, entries[i].Values)
				}
			}
			if again := EncodeFrame(got); !bytes.Equal(again, data) {
				t.Error("re-encoding the decoded entries changed the bytes")
			}
			if ref := referenceFrame(entries); !bytes.Equal(data, ref) {
				t.Error("EncodeFrame differs from the reference sections")
			}
			drainReader(t, fmt.Sprintf("frame%d", fi), data, func() *Reader[int64] { return NewFrameReader(entries) })
		})
	}
}

// referenceFrame assembles a frame section by section, with no
// chunking.
func referenceFrame[K FixedKey](entries []FrameEntry[K]) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(frameMagic), FrameVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Meta)))
		b = append(b, e.Meta...)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(e.Meta, castagnoli))
		vals := appendKeys(nil, e.Values)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(vals)))
		b = append(b, vals...)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(vals, castagnoli))
	}
	return b
}

// BenchmarkFrameEncode measures one frame response's encode into
// io.Discard, as the daemon writes it to the connection: a scalar entry
// (metadata only, as a select answers) and an entry of 2^16 values (a
// large top-k), for both value kinds.
func BenchmarkFrameEncode(b *testing.B) {
	meta := []byte(`{"value":4611686018427387904,"report":{"algorithm":"fast-randomized",` +
		`"sim_seconds":0.0123456789,"messages":42,"bytes":336,"iterations":3,"wall_seconds":0.0001}}`)
	rng := rand.New(rand.NewPCG(29, 1))
	ints := make([]int64, 1<<16)
	floats := make([]float64, len(ints))
	for i := range ints {
		ints[i] = rng.Int64()
		floats[i] = math.Float64frombits(uint64(ints[i]))
	}
	b.Run("int64/scalar", func(b *testing.B) { benchFrame(b, []FrameEntry[int64]{{Meta: meta}}) })
	b.Run("int64/65536", func(b *testing.B) { benchFrame(b, []FrameEntry[int64]{{Meta: meta, Values: ints}}) })
	b.Run("float64/scalar", func(b *testing.B) { benchFrame(b, []FrameEntry[float64]{{Meta: meta}}) })
	b.Run("float64/65536", func(b *testing.B) { benchFrame(b, []FrameEntry[float64]{{Meta: meta, Values: floats}}) })
}

func benchFrame[K FixedKey](b *testing.B, entries []FrameEntry[K]) {
	b.ReportAllocs()
	b.SetBytes(int64(len(EncodeFrame(entries))))
	b.ResetTimer()
	for range b.N {
		if _, err := NewFrameReader(entries).WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameRejectsCorruption pins the frame's corruption guarantees:
// every single-byte corruption and every truncation fails with a typed
// error and no entries.
func TestFrameRejectsCorruption(t *testing.T) {
	data := EncodeFrame([]FrameEntry[int64]{
		{Meta: []byte(`{"report":{}}`), Values: []int64{3, 1, 4, 1, 5}},
		{Meta: []byte(`{"value":9}`)},
	})
	for off := range data {
		mut := slices.Clone(data)
		mut[off] ^= 0xff
		entries, err := DecodeFrame[int64](mut)
		if err == nil {
			t.Fatalf("flip at offset %d of %d decoded successfully", off, len(data))
		}
		if entries != nil {
			t.Fatalf("flip at offset %d returned entries alongside error %v", off, err)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if entries, err := DecodeFrame[int64](data[:cut]); err == nil || entries != nil {
			t.Fatalf("truncation to %d of %d bytes decoded (err %v)", cut, len(data), err)
		}
	}
	if _, err := DecodeFrame[int64](append(slices.Clone(data), 7)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v, want ErrCorrupt", err)
	}
	if _, err := DecodeFrame[int64]([]byte("PSELSNAP....")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("snapshot magic on a frame: %v, want ErrBadMagic", err)
	}
}

// TestEncodedSize pins Reader.Size against the bytes the encoder
// actually produces, across the shared shape catalogue — the client's
// streaming upload declares it as its Content-Length.
func TestEncodedSize(t *testing.T) {
	for si, shards := range testShapes {
		h := Header{Options: strings.Repeat("o", si)}
		if got, want := encodedSize(t, h, shards), int64(len(Encode(h, shards))); got != want {
			t.Errorf("shape %d: Size %d, encoded %d bytes", si, got, want)
		}
	}
}

// encodedSize is NewReader(h, shards).Size().
func encodedSize[K Key](t *testing.T, h Header, shards [][]K) int64 {
	t.Helper()
	r, err := NewReader(h, shards)
	if err != nil {
		t.Fatal(err)
	}
	return r.Size()
}

// TestStreamDecoderMatchesDecode pins that the streaming decoder and
// the in-memory Decode agree byte-for-byte on the shapes catalogue:
// one decode path, two entry points.
func TestStreamDecoderMatchesDecode(t *testing.T) {
	for si, shards := range testShapes {
		data := Encode(Header{Options: "fp"}, shards)
		wantH, want, err := DecodeAs[int64](data)
		if err != nil {
			t.Fatalf("shape %d: Decode: %v", si, err)
		}
		// A budget far above the input must not change the verdict (the
		// upload path passes the transport's body limit, not the size).
		dec, err := NewStreamDecoder(bytes.NewReader(data), 1<<30)
		if err != nil {
			t.Fatalf("shape %d: NewStreamDecoder: %v", si, err)
		}
		if dec.Header() != wantH {
			t.Errorf("shape %d: header %+v, want %+v", si, dec.Header(), wantH)
		}
		got, err := ReadDataAs[int64](dec)
		if err != nil {
			t.Fatalf("shape %d: ReadData: %v", si, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shape %d: %d shards, want %d", si, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("shape %d shard %d: %v, want %v", si, i, got[i], want[i])
			}
		}
	}
}

// TestStreamDecoderBudget pins that a dataset larger than the byte
// bound is refused at the header, before any allocation — the serving
// layer's body limit is enforced even when the transport lies about
// Content-Length.
func TestStreamDecoderBudget(t *testing.T) {
	data := Encode(Header{}, [][]int64{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10}})
	if _, err := NewStreamDecoder(bytes.NewReader(data), 40); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-budget header: %v, want ErrCorrupt", err)
	}
	if _, err := NewStreamDecoder(bytes.NewReader(data), 0); !errors.Is(err, ErrBadMagic) {
		t.Errorf("zero budget: %v, want ErrBadMagic", err)
	}
}
