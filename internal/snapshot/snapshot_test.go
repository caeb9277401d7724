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

// testShapes are dataset shapes covering the registry's edge cases:
// ragged shards, empty shards, empty populations, single processor.
var testShapes = [][][]int64{
	{{3, 1, 4}, {1, 5, 9, 2, 6}, {5, 3}},
	{{42}},
	{{}, {7, 7, 7}, {}, {-1, 1 << 62}},
	{{}, {}},
	{{-9223372036854775808, 9223372036854775807, 0}},
}

// stringTestShapes are string dataset shapes covering the payload's
// edge cases: empty strings, non-UTF-8 bytes, empty shards, and a key
// longer than a whole 8192-key write chunk of fixed-width keys.
var stringTestShapes = [][][]string{
	{{"pear", "apple"}, {"mango"}},
	{{""}},
	{{}, {"", "\xff\xfe", "\x00z"}, {}, {"caf\xc3\xa9", "\xc3"}},
	{{}, {}},
	{{"x"}, {strings.Repeat("\x80", 8*8192+1)}},
}

// manyStrings returns n distinct short keys, some of them empty.
func manyStrings(n int) []string {
	out := make([]string, n)
	for i := range out {
		if i%7 != 0 {
			out[i] = fmt.Sprint(i * 31)
		}
	}
	return out
}

// randomShards draws a ragged random sharding.
func randomShards(rng *rand.Rand, procs int, n int64) [][]int64 {
	shards := make([][]int64, procs)
	for i := int64(0); i < n; i++ {
		p := rng.IntN(procs)
		shards[p] = append(shards[p], rng.Int64()-rng.Int64())
	}
	return shards
}

// TestEncodeDecodeRoundTrip pins that Decode inverts Encode exactly:
// same shard boundaries, same keys, a consistent header, and a
// contiguous backing array (the layout RestoreDataset adopts).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	shapes := slices.Clone(testShapes)
	for i := 0; i < 4; i++ {
		shapes = append(shapes, randomShards(rng, 1+rng.IntN(9), rng.Int64N(3000)))
	}
	for si, shards := range shapes {
		t.Run(fmt.Sprintf("shape%d", si), func(t *testing.T) {
			data := Encode(Header{Options: "alg=test seed=7"}, shards)
			h, got, err := DecodeAs[int64](data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			var n int64
			for _, sh := range shards {
				n += int64(len(sh))
			}
			if h.KeyType != KeyTypeInt64 || h.Options != "alg=test seed=7" ||
				h.Procs != len(shards) || h.N != n {
				t.Errorf("header %+v, want key type %s options %q procs %d n %d",
					h, KeyTypeInt64, "alg=test seed=7", len(shards), n)
			}
			if len(got) != len(shards) {
				t.Fatalf("decoded %d shards, want %d", len(got), len(shards))
			}
			for i := range shards {
				if !slices.Equal(got[i], shards[i]) {
					t.Errorf("shard %d: %v, want %v", i, got[i], shards[i])
				}
			}
			// A second round trip through the decoded shards is
			// byte-identical: the format is canonical.
			if again := Encode(Header{Options: h.Options}, got); !slices.Equal(again, data) {
				t.Error("re-encoding the decoded shards changed the bytes")
			}
		})
	}
}

// TestFixedDecodePaths pins that the two fixed-width codec paths agree
// bit for bit, NaN payloads included, over shapes that span several
// chunks and end in a partial one: the encoder serving the keys'
// memory in place (little-endian hosts) emits the same bytes as the
// one staging them through its chunk (big-endian hosts), and reading
// the data section straight into the keys' memory decodes the same
// keys as decoding it from a chunk buffer.
func TestFixedDecodePaths(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 8))
	ints := randomShards(rng, 3, 20011)
	floats := make([][]float64, len(ints))
	for i, sh := range ints {
		floats[i] = make([]float64, len(sh))
		for j, k := range sh {
			floats[i][j] = math.Float64frombits(uint64(k))
		}
	}
	floats[0][0] = math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN payload
	codecBothWays(t, ints)
	codecBothWays(t, floats)
}

func codecBothWays[K FixedKey](t *testing.T, shards [][]K) {
	t.Helper()
	defer func(le bool) { littleEndian = le }(littleEndian)
	var enc [2][]byte
	var got [2][][]K
	for i, le := range []bool{true, false} {
		littleEndian = le
		enc[i] = Encode(Header{}, shards)
		_, sh, err := DecodeAs[K](enc[0])
		if err != nil {
			t.Fatalf("%s, little-endian path %v: %v", KeyTypeFor[K](), le, err)
		}
		got[i] = sh
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Fatalf("%s: the in-place and staged encoders disagree", KeyTypeFor[K]())
	}
	for i := range shards {
		if !slices.Equal(bitsOf(got[0][i]), bitsOf(shards[i])) || !slices.Equal(bitsOf(got[1][i]), bitsOf(shards[i])) {
			t.Fatalf("%s shard %d: the decode paths disagree with the input", KeyTypeFor[K](), i)
		}
	}

	// The same two paths run every result frame: one entry per shard.
	entries := make([]FrameEntry[K], len(shards))
	for i, sh := range shards {
		entries[i] = FrameEntry[K]{Meta: []byte{byte(i)}, Values: sh}
	}
	var frames [2][]FrameEntry[K]
	for i, le := range []bool{true, false} {
		littleEndian = le
		enc[i] = EncodeFrame(entries)
		fr, err := DecodeFrame[K](enc[0])
		if err != nil {
			t.Fatalf("%s frame, little-endian path %v: %v", KeyTypeFor[K](), le, err)
		}
		frames[i] = fr
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Fatalf("%s: the in-place and staged frame encoders disagree", KeyTypeFor[K]())
	}
	for i := range shards {
		if !slices.Equal(bitsOf(frames[0][i].Values), bitsOf(shards[i])) || !slices.Equal(bitsOf(frames[1][i].Values), bitsOf(shards[i])) {
			t.Fatalf("%s frame entry %d: the decode paths disagree with the input", KeyTypeFor[K](), i)
		}
	}
}

// TestReaderReadSizes pins that the encoder serves the same bytes
// however it is drained: Read at 1, 3, 4096 and 65537 bytes a call and
// WriteTo each yield exactly Encode's bytes, Size() of them, and those
// are the sections assembled directly from appendKeys. The shapes
// include empty shards, zero-key populations, several staging chunks
// of short string keys whose encodings straddle every read boundary,
// and a string key longer than a chunk.
func TestReaderReadSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	ints := append(slices.Clone(testShapes), randomShards(rng, 4, 3*8192+5), [][]int64{})
	floats := make([][][]float64, len(ints))
	for si, shards := range ints {
		floats[si] = make([][]float64, len(shards))
		for p, sh := range shards {
			for _, k := range sh {
				floats[si][p] = append(floats[si][p], math.Float64frombits(uint64(k)))
			}
		}
	}
	strs := append(slices.Clone(stringTestShapes),
		[][]string{manyStrings(3*8192 + 1), {}, {"tail"}},
		[][]string{{"a"}, {strings.Repeat("b", chunkBytes-4)}, {strings.Repeat("c", chunkBytes-3), ""}})
	for si, shards := range ints {
		drainEveryWay(t, fmt.Sprintf("int64 shape %d", si), shards)
	}
	for si, shards := range floats {
		drainEveryWay(t, fmt.Sprintf("float64 shape %d", si), shards)
	}
	for si, shards := range strs {
		drainEveryWay(t, fmt.Sprintf("string shape %d", si), shards)
	}
}

func drainEveryWay[K Key](t *testing.T, name string, shards [][]K) {
	t.Helper()
	h := Header{Options: "fp"}
	want := Encode(h, shards)
	if ref := referenceEncode(h, shards); !bytes.Equal(want, ref) {
		t.Fatalf("%s: Encode differs from the reference sections", name)
	}
	drainReader(t, name, want, func() *Reader[K] {
		r, err := NewReader(h, shards)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
}

// drainReader pins that every fresh encoder from newR serves exactly
// want, and Size() of it, through Read at every size and through
// WriteTo.
func drainReader[K Key](t *testing.T, name string, want []byte, newR func() *Reader[K]) {
	t.Helper()
	for _, size := range []int{1, 3, 4096, 65537} {
		r := newR()
		var got []byte
		p := make([]byte, size)
		for {
			n, err := r.Read(p)
			got = append(got, p[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("%s: Read(%d): n=%d err=%v", name, size, n, err)
			}
		}
		if !bytes.Equal(got, want) || r.Size() != int64(len(want)) {
			t.Fatalf("%s: Read(%d) served %d bytes (Size %d), want %d, equal %v",
				name, size, len(got), r.Size(), len(want), bytes.Equal(got, want))
		}
	}
	r := newR()
	var buf bytes.Buffer
	if n, err := r.WriteTo(&buf); err != nil || n != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: WriteTo wrote %d bytes (err %v), want %d", name, n, err, len(want))
	}
	if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("%s: Read after the end: %d, %v", name, n, err)
	}
}

// referenceEncode assembles a snapshot section by section from
// appendPrologue and appendKeys, with no chunking.
func referenceEncode[K Key](h Header, shards [][]K) []byte {
	var n int64
	var ext, data []byte
	for _, sh := range shards {
		n += int64(len(sh))
		ext = binary.LittleEndian.AppendUint64(ext, uint64(len(sh)))
		data = appendKeys(data, sh)
	}
	b := appendPrologue(nil, Header{KeyType: KeyTypeFor[K](), Options: h.Options, Procs: len(shards), N: n})
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ext)))
	b = append(b, ext...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(ext, castagnoli))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(data)))
	b = append(b, data...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(data, castagnoli))
}

// BenchmarkEncode measures the encoder on 2^18 keys of each kind
// (eight shards), drained through a 32 KiB io.CopyBuffer as net/http
// drains a request body: int64 and float64 keys are served from their
// memory on a little-endian host, string keys are staged.
func BenchmarkEncode(b *testing.B) {
	const procs, n = 8, 1 << 18
	rng := rand.New(rand.NewPCG(25, 2))
	ints := make([][]int64, procs)
	floats := make([][]float64, procs)
	strs := make([][]string, procs)
	for p := range procs {
		for range n / procs {
			k := rng.Int64()
			ints[p] = append(ints[p], k)
			floats[p] = append(floats[p], math.Float64frombits(uint64(k)))
			strs[p] = append(strs[p], fmt.Sprint(k))
		}
	}
	b.Run("int64", func(b *testing.B) { benchEncode(b, ints) })
	b.Run("float64", func(b *testing.B) { benchEncode(b, floats) })
	b.Run("string", func(b *testing.B) { benchEncode(b, strs) })
}

func benchEncode[K Key](b *testing.B, shards [][]K) {
	buf := make([]byte, 32<<10)
	// Hiding WriteTo and ReadFrom makes CopyBuffer pull through buf.
	dst := struct{ io.Writer }{io.Discard}
	b.SetBytes(int64(len(Encode(Header{}, shards))))
	b.ResetTimer()
	for range b.N {
		r, err := NewReader(Header{}, shards)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.CopyBuffer(dst, struct{ io.Reader }{r}, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// bitsOf is the data-section encoding of keys, for bitwise comparison.
func bitsOf[K FixedKey](keys []K) []byte { return appendKeys(nil, keys) }

// TestDecodeRejectsEveryBitFlip pins the corruption guarantee behind
// the durability story: every byte of a snapshot is load-bearing
// (magic, version, lengths, payloads, CRCs), so any single corrupted
// byte makes Decode fail with a typed error instead of returning
// silently wrong data.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	rejectEveryBitFlip(t, [][]int64{{3, 1, 4}, {}, {1, 5, 9}})
	rejectEveryBitFlip(t, [][]string{{"pear", ""}, {}, {"\xff", "fig"}})
}

func rejectEveryBitFlip[K Key](t *testing.T, shards [][]K) {
	t.Helper()
	data := Encode(Header{Options: "fp"}, shards)
	for off := range data {
		mut := slices.Clone(data)
		mut[off] ^= 0xff
		_, got, err := DecodeAs[K](mut)
		if err == nil {
			t.Fatalf("%s: flip at offset %d of %d decoded successfully", KeyTypeFor[K](), off, len(data))
		}
		if got != nil {
			t.Fatalf("%s: flip at offset %d returned shards alongside error %v", KeyTypeFor[K](), off, err)
		}
		if !IsDecodeError(err) {
			t.Fatalf("%s: flip at offset %d: untyped error %v", KeyTypeFor[K](), off, err)
		}
	}
}

// TestDecodeRejectsEveryTruncation pins that no prefix of a snapshot
// decodes: a partial write can never be mistaken for a dataset.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	rejectEveryTruncation(t, [][]int64{{2, 7, 1}, {8, 2, 8}})
	rejectEveryTruncation(t, [][]string{{"kiwi", "", "\x00"}, {"plum"}})
}

func rejectEveryTruncation[K Key](t *testing.T, shards [][]K) {
	t.Helper()
	data := Encode(Header{}, shards)
	for cut := 0; cut < len(data); cut++ {
		if _, got, err := DecodeAs[K](data[:cut]); err == nil || got != nil {
			t.Fatalf("%s: truncation to %d of %d bytes decoded (err %v)", KeyTypeFor[K](), cut, len(data), err)
		}
	}
	// Trailing garbage is equally fatal.
	if _, _, err := DecodeAs[K](append(slices.Clone(data), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: trailing byte: %v, want ErrCorrupt", KeyTypeFor[K](), err)
	}
}

// TestDecodeTypedFailures pins which typed error each failure class
// maps to.
func TestDecodeTypedFailures(t *testing.T) {
	valid := Encode(Header{}, [][]int64{{1, 2}, {3}})

	if _, _, err := DecodeAs[int64](nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("empty input: %v, want ErrBadMagic", err)
	}
	if _, _, err := DecodeAs[int64]([]byte("NOTASNAPFILE")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("alien bytes: %v, want ErrBadMagic", err)
	}

	skew := slices.Clone(valid)
	skew[8] = 99 // the version field follows the 8-byte magic
	if _, _, err := DecodeAs[int64](skew); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: %v, want ErrVersion", err)
	}

	// A snapshot claiming a different key type, with its header CRC
	// recomputed so the typed key-type check (not the CRC) fires:
	// patch "int64" -> "int32" inside the header payload, which starts
	// at offset 16 (magic 8 + version 4 + length 4).
	foreign := slices.Clone(valid)
	hdrLen := int(binary.LittleEndian.Uint32(foreign[12:16]))
	payload := foreign[16 : 16+hdrLen]
	idx := bytes.Index(payload, []byte(KeyTypeInt64))
	if idx < 0 {
		t.Fatal("key type string not found in header payload")
	}
	copy(payload[idx:], "int32")
	binary.LittleEndian.PutUint32(foreign[16+hdrLen:], crc32.Checksum(payload, castagnoli))
	if _, _, err := DecodeAs[int64](foreign); !errors.Is(err, ErrKeyType) {
		t.Errorf("foreign key type: %v, want ErrKeyType", err)
	}
}

// TestStringRoundTrip pins that DecodeAs[string] inverts Encode exactly
// on the string shapes, plus a shard of more keys than one 8192-key
// write chunk: same shard boundaries, same bytes in every key, a
// consistent header, a canonical re-encoding, and an exact Size.
func TestStringRoundTrip(t *testing.T) {
	shapes := append(slices.Clone(stringTestShapes), [][]string{manyStrings(8192 + 3), {"tail"}})
	for si, shards := range shapes {
		h := Header{Options: "alg=test"}
		data := Encode(h, shards)
		if got := encodedSize(t, h, shards); got != int64(len(data)) {
			t.Errorf("shape %d: Size %d, encoded %d bytes", si, got, len(data))
		}
		dh, got, err := DecodeAs[string](data)
		if err != nil {
			t.Fatalf("shape %d: decode: %v", si, err)
		}
		var n int64
		for _, sh := range shards {
			n += int64(len(sh))
		}
		if dh.KeyType != KeyTypeString || dh.Procs != len(shards) || dh.N != n {
			t.Errorf("shape %d: header %+v", si, dh)
		}
		if len(got) != len(shards) {
			t.Fatalf("shape %d: %d shards, want %d", si, len(got), len(shards))
		}
		for i := range shards {
			if !slices.Equal(got[i], shards[i]) {
				t.Errorf("shape %d shard %d differs", si, i)
			}
		}
		if again := Encode(Header{Options: dh.Options}, got); !bytes.Equal(again, data) {
			t.Errorf("shape %d: re-encoding the decoded shards changed the bytes", si)
		}
		// A fixed-width reader refuses the stream by its header.
		if _, _, err := DecodeAs[int64](data); !errors.Is(err, ErrKeyType) {
			t.Errorf("shape %d: int64 reader: %v, want ErrKeyType", si, err)
		}
	}
}

// replaceData swaps the data section of an encoded snapshot for
// payload, with a matching length prefix and CRC, so the structural
// checks inside the section (not the CRC) decide the verdict.
func replaceData(t *testing.T, data, payload []byte) []byte {
	t.Helper()
	off := len(magic) + 4
	for range 2 { // the header and extents sections
		off += 4 + int(binary.LittleEndian.Uint32(data[off:])) + 4
	}
	out := slices.Clone(data[:off])
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
}

// TestStringSectionStructure pins the string payload's structural
// checks: every key's length prefix must fit, the section must be
// consumed exactly, it must hold at least four bytes a key, and a
// header claiming more keys than the byte bound can carry is refused
// before anything is read.
func TestStringSectionStructure(t *testing.T) {
	valid := Encode(Header{}, [][]string{{"ab", ""}}) // payload 02000000 'a' 'b' 00000000
	if _, got, err := DecodeAs[string](replaceData(t, valid, []byte("\x02\x00\x00\x00ab\x00\x00\x00\x00"))); err != nil || got[0][0] != "ab" {
		t.Fatalf("rebuilt valid section: %v, %q", err, got)
	}
	for name, payload := range map[string]string{
		"length overrun":      "\x02\x00\x00\x00ab\x05\x00\x00\x00abcd",
		"trailing bytes":      "\x02\x00\x00\x00ab\x00\x00\x00\x00z",
		"under four per key":  "\x02\x00\x00",
		"length prefix split": "\x01\x00\x00\x00a\x00\x00\x00",
	} {
		_, got, err := DecodeAs[string](replaceData(t, valid, []byte(payload)))
		if !errors.Is(err, ErrCorrupt) || got != nil {
			t.Errorf("%s: %v (shards %v), want ErrCorrupt", name, err, got)
		}
	}

	many := Encode(Header{}, [][]string{{"", "", "", ""}, {"", ""}}) // six keys
	if _, err := NewStreamDecoder(bytes.NewReader(many), 6*4-1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("six keys under a 23-byte bound: %v, want ErrCorrupt", err)
	}
}
