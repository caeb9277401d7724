package serve_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// updateGolden rewrites the committed wire bytes instead of comparing
// against them: go test ./internal/serve -run TestDaemonWireGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden instead of comparing against it")

// wireTap sits in front of the daemon and keeps the body of the last
// request and of its response, exactly as they crossed the wire.
type wireTap struct {
	h        http.Handler
	mu       sync.Mutex
	req, res []byte
}

type tapWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *tapWriter) Write(b []byte) (int, error) {
	w.buf.Write(b)
	return w.ResponseWriter.Write(b)
}

func (t *wireTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	tw := &tapWriter{ResponseWriter: w}
	t.h.ServeHTTP(tw, r)
	t.mu.Lock()
	t.req, t.res = body, tw.buf.Bytes()
	t.mu.Unlock()
}

func (t *wireTap) last() (req, res []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.req, t.res
}

// wallSeconds is the one host-time field of a response; it is
// normalized away so the rest of the bytes can be pinned exactly.
var wallSeconds = regexp.MustCompile(`"wall_seconds":[^,}]*`)

func normalizeJSON(b []byte) []byte {
	return wallSeconds.ReplaceAll(b, []byte(`"wall_seconds":0`))
}

// normalizeResponse normalizes one response body: JSON directly, a
// binary result frame entry by entry (re-encoded after the metadata
// is normalized, so the framing itself stays covered).
func normalizeResponse(t *testing.T, b []byte) string {
	t.Helper()
	if !bytes.HasPrefix(b, []byte("PSELFRME")) {
		return string(normalizeJSON(b))
	}
	entries, err := snapshot.DecodeFrame(b)
	if err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	for i := range entries {
		entries[i].Meta = normalizeJSON(entries[i].Meta)
	}
	return "frame " + hex.EncodeToString(snapshot.EncodeFrame(entries)) + "\n"
}

// goldenQueries are the queries of the wire pin: every op, plus the
// zero-valued quantile and k whose fields must still travel.
func goldenQueries(n int64) []struct {
	name string
	q    parsel.Query
} {
	return []struct {
		name string
		q    parsel.Query
	}{
		{"select", parsel.Query{Op: parsel.OpSelect, Rank: 7}},
		{"median", parsel.Query{Op: parsel.OpMedian}},
		{"quantile", parsel.Query{Op: parsel.OpQuantile, Q: 0.25}},
		{"quantile-zero", parsel.Query{Op: parsel.OpQuantile, Q: 0}},
		{"quantiles", parsel.Query{Op: parsel.OpQuantiles, Qs: []float64{0.1, 0.5, 0.9}}},
		{"ranks", parsel.Query{Op: parsel.OpRanks, Ranks: []int64{1, 5, n}}},
		{"topk", parsel.Query{Op: parsel.OpTopK, K: 4}},
		{"topk-zero", parsel.Query{Op: parsel.OpTopK, K: 0}},
		{"bottomk", parsel.Query{Op: parsel.OpBottomK, K: 4}},
		{"summary", parsel.Query{Op: parsel.OpSummary}},
	}
}

// goldenShards draws a small fixed population for kind K from one
// integer sequence with duplicates and negatives, so all three kinds
// exercise ties and signs.
func goldenShards[K parselclient.Key](conv func(int64) K) [][]K {
	shards := make([][]K, 3)
	x := int64(17)
	for i := 0; i < 23; i++ {
		x = (x*37 + 11) % 101
		shards[i%3] = append(shards[i%3], conv(x-50))
	}
	shards[2] = append(shards[2], conv(0), conv(0))
	return shards
}

// runGolden replays every query for kind K through a JSON and a
// binary-negotiating client and renders the captured bytes.
func runGolden[K parselclient.Key](t *testing.T, shards [][]K) string {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := serve.New(serve.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tap := &wireTap{h: srv}
	ts := httptest.NewServer(tap)
	defer ts.Close()
	jc := parselclient.Keyed[K](parselclient.New(ts.URL, parselclient.WithHTTPClient(ts.Client())))
	bc := parselclient.Keyed[K](parselclient.New(ts.URL, parselclient.WithHTTPClient(ts.Client()),
		parselclient.WithBinary(true)))
	ctx := context.Background()
	if _, err := jc.Dataset("golden").Upload(ctx, shards); err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, s := range shards {
		n += int64(len(s))
	}

	var out strings.Builder
	section := func(title string, body string) {
		fmt.Fprintf(&out, "== %s\n%s", title, body)
		if !strings.HasSuffix(body, "\n") {
			out.WriteString("\n")
		}
	}
	capture := func(name string, run func(parselclient.KindClient[K]) error) {
		if err := run(jc); err != nil {
			t.Fatalf("%s (json): %v", name, err)
		}
		req, res := tap.last()
		section(name+" request", string(req))
		section(name+" response json", normalizeResponse(t, res))
		if err := run(bc); err != nil {
			t.Fatalf("%s (binary): %v", name, err)
		}
		breq, bres := tap.last()
		if !bytes.Equal(breq, req) {
			t.Errorf("%s: binary client sent %s, json client %s", name, breq, req)
		}
		section(name+" response frame", normalizeResponse(t, bres))
	}
	var items []parselclient.DatasetQuery
	for _, c := range goldenQueries(n) {
		capture("shard "+c.name, func(kc parselclient.KindClient[K]) error {
			_, err := kc.Run(ctx, shards, c.q)
			return err
		})
		capture("dataset "+c.name, func(kc parselclient.KindClient[K]) error {
			_, err := kc.Dataset("golden").Run(ctx, c.q)
			return err
		})
		items = append(items, parselclient.DatasetQueryOf(c.q))
	}
	capture("querymany", func(kc parselclient.KindClient[K]) error {
		_, err := kc.Dataset("golden").QueryMany(ctx, items)
		return err
	})
	return out.String()
}

// TestDaemonWireGolden pins the JSON and frame wire byte for byte:
// for every query op against shards, against a resident dataset and
// as a querymany item, in all three key kinds, the request body the
// client sends and the daemon's JSON and frame response bodies must
// equal the committed bytes (host wall time normalized away).
func TestDaemonWireGolden(t *testing.T) {
	kinds := map[string]func(*testing.T) string{
		"int64": func(t *testing.T) string {
			return runGolden(t, goldenShards(func(x int64) int64 { return x * 1000003 }))
		},
		"float64": func(t *testing.T) string {
			return runGolden(t, goldenShards(func(x int64) float64 { return float64(x) / 8 }))
		},
		"string": func(t *testing.T) string {
			return runGolden(t, goldenShards(func(x int64) string { return fmt.Sprintf("k%+04d", x) }))
		},
	}
	for _, kind := range []string{"int64", "float64", "string"} {
		t.Run(kind, func(t *testing.T) {
			got := kinds[kind](t)
			path := filepath.Join("testdata", "golden", "wire_"+kind+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (rerun with -update-golden to record): %v", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < max(len(gl), len(wl)); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("%s: wire bytes diverge at line %d:\n got  %s\n want %s", path, i+1, g, w)
					}
				}
			}
		})
	}
}
