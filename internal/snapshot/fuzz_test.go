package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode throws adversarial bytes at the snapshot reader,
// decoding each input under the key type its header names (int64,
// float64 or string): it must never panic (no index past the data, no
// allocation driven by an unchecked length field), never return shards
// alongside an error, classify every failure as exactly one typed
// error, and any accepted input must decode into shards consistent
// with its header — a corrupted/truncated/bit-flipped snapshot never
// resurrects as a dataset.
func FuzzSnapshotDecode(f *testing.F) {
	for _, shards := range testShapes {
		f.Add(Encode(Header{Options: "fp"}, shards))
	}
	f.Add(Encode(Header{}, [][]float64{{0.5, -2}, {}}))
	for _, shards := range stringTestShapes {
		f.Add(Encode(Header{Options: "fp"}, shards))
	}
	valid := Encode(Header{Options: "seed"}, [][]int64{{3, 1, 4, 1, 5}, {9, 2, 6}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])              // truncated CRC
	f.Add(append([]byte(nil), valid[4:]...)) // sheared magic
	f.Add([]byte("PSELSNAP"))                // magic only
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[20] ^= 0x08
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewStreamDecoder(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !IsDecodeError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		switch d.Header().KeyType {
		case KeyTypeFloat64:
			checkFuzzDecode[float64](t, data)
		case KeyTypeString:
			checkFuzzDecode[string](t, data)
		default:
			checkFuzzDecode[int64](t, data)
		}
	})
}

// checkFuzzDecode decodes data as K-keyed and checks the fuzz
// invariants: a typed error and no shards, or shards that agree with
// the header and re-encode to exactly data.
func checkFuzzDecode[K Key](t *testing.T, data []byte) {
	h, shards, err := DecodeAs[K](data)
	if err != nil {
		if shards != nil {
			t.Fatalf("error %v returned alongside %d shards", err, len(shards))
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrKeyType) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	// Accepted: header and shards must agree, and the encoding must
	// be canonical (re-encoding reproduces the input bytes exactly,
	// so no two distinct files decode to the same dataset state).
	if h.Procs != len(shards) {
		t.Fatalf("header claims %d procs, decoded %d shards", h.Procs, len(shards))
	}
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	if n != h.N {
		t.Fatalf("header claims %d keys, decoded %d", h.N, n)
	}
	if again := Encode(Header{Options: h.Options}, shards); !bytes.Equal(again, data) {
		t.Fatalf("accepted non-canonical encoding (%d bytes, canonical %d)", len(data), len(again))
	}
}

// FuzzFrameDecode throws adversarial bytes at the result-frame reader:
// like FuzzSnapshotDecode it must never panic, never return entries
// alongside an error, classify every failure as a typed error, and
// accept only canonical encodings — a corrupted or truncated frame
// never resurrects as query results.
func FuzzFrameDecode(f *testing.F) {
	for _, entries := range testFrames {
		f.Add(EncodeFrame(entries))
	}
	valid := EncodeFrame([]FrameEntry[int64]{
		{Meta: []byte(`{"report":{"sim_seconds":0.5}}`), Values: []int64{3, 1, 4, 1, 5}},
		{Meta: []byte(`{"error":{"code":"no_data","message":"m"}}`)},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])              // truncated CRC
	f.Add(append([]byte(nil), valid[4:]...)) // sheared magic
	f.Add([]byte("PSELFRME"))                // magic only
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[17] ^= 0x20
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkFuzzFrame[int64](t, data)
		checkFuzzFrame[float64](t, data)
	})
}

// checkFuzzFrame decodes data as a frame of K values and checks the
// fuzz invariants: a typed error and no entries, or entries that
// re-encode to exactly data.
func checkFuzzFrame[K FixedKey](t *testing.T, data []byte) {
	entries, err := DecodeFrame[K](data)
	if err != nil {
		if entries != nil {
			t.Fatalf("error %v returned alongside %d entries", err, len(entries))
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	// Accepted: the encoding must be canonical, so no two distinct
	// frames decode to the same results.
	if again := EncodeFrame(entries); !bytes.Equal(again, data) {
		t.Fatalf("accepted non-canonical %s frame (%d bytes, canonical %d)",
			KeyTypeFor[K](), len(data), len(again))
	}
}
