package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/snapshot"
	"parsel/internal/workload"
	"parsel/parselclient"
)

// binaryClient builds a second client on the same daemon with the
// binary frame encoding switched on.
func binaryClient(d *daemon) *parselclient.Client {
	return parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()), parselclient.WithBinary(true))
}

// TestDaemonBinaryDifferentialE2E replays the differential catalogue
// over the binary wire: every shape is uploaded twice — once as JSON,
// once streamed as the snapshot binary format — and the full query
// surface (single queries with framed responses, plus a mixed
// querymany batch) must answer bit-identically across both encodings
// and the in-process oracle, simulated metrics included.
func TestDaemonBinaryDifferentialE2E(t *testing.T) {
	shapes := e2eShapes()
	if testing.Short() {
		shapes = shapes[:6]
	}
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{})
	defer d.close()
	bc := binaryClient(d)
	oracle, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			sorted := workload.Flatten(shape.shards)
			slices.Sort(sorted)
			n := int64(len(sorted))
			ods, err := oracle.NewDataset(shape.shards)
			if err != nil {
				t.Fatal(err)
			}
			defer ods.Close()

			id := "bin-" + strings.ReplaceAll(shape.name, "/", "-")
			jd := d.client.Dataset(id + "-json")
			bd := bc.Dataset(id)
			jinfo, err := jd.Upload(ctx, shape.shards)
			if err != nil {
				t.Fatalf("json upload: %v", err)
			}
			binfo, err := bd.Upload(ctx, shape.shards)
			if err != nil {
				t.Fatalf("binary upload: %v", err)
			}
			// Identical datasets however the keys crossed the wire.
			if jinfo.Procs != binfo.Procs || jinfo.N != binfo.N || jinfo.Bytes != binfo.Bytes {
				t.Errorf("upload infos diverge: json %+v, binary %+v", jinfo, binfo)
			}

			rank := (n + 1) / 2
			jsel, err := jd.Select(ctx, rank)
			if err != nil {
				t.Fatalf("json select: %v", err)
			}
			bsel, err := bd.Select(ctx, rank)
			if err != nil {
				t.Fatalf("binary select: %v", err)
			}
			osel, err := ods.Select(context.Background(), rank)
			if err != nil {
				t.Fatal(err)
			}
			if bsel.Value != jsel.Value || simOf(bsel.Report) != simOf(jsel.Report) {
				t.Errorf("select diverges across encodings: binary %d %+v, json %d %+v",
					bsel.Value, simOf(bsel.Report), jsel.Value, simOf(jsel.Report))
			}
			if bsel.Value != osel.Value || simOf(bsel.Report) != simOf(osel.Report) {
				t.Errorf("binary select diverges from in-process: %d %+v, dataset %d %+v",
					bsel.Value, simOf(bsel.Report), osel.Value, simOf(osel.Report))
			}
			if bsel.Value != sorted[rank-1] {
				t.Errorf("binary select rank %d = %d, sort oracle says %d", rank, bsel.Value, sorted[rank-1])
			}

			qs := []float64{0, 0.25, 0.5, 0.75, 0.99, 1}
			jqs, jrep, err := jd.Quantiles(ctx, qs)
			if err != nil {
				t.Fatalf("json quantiles: %v", err)
			}
			bqs, brep, err := bd.Quantiles(ctx, qs)
			if err != nil {
				t.Fatalf("binary quantiles: %v", err)
			}
			if !slices.Equal(bqs, jqs) || simOf(brep) != simOf(jrep) {
				t.Errorf("quantiles diverge across encodings: binary %v %+v, json %v %+v",
					bqs, simOf(brep), jqs, simOf(jrep))
			}

			// k=0 keeps its empty-not-null values array through the frame.
			btop, _, err := bd.TopK(ctx, 0)
			if err != nil {
				t.Fatalf("binary topk(0): %v", err)
			}
			if btop == nil || len(btop) != 0 {
				t.Errorf("binary topk(0) = %#v, want non-nil empty slice", btop)
			}

			bsum, bsrep, err := bd.Summary(ctx)
			if err != nil {
				t.Fatalf("binary summary: %v", err)
			}
			jsum, jsrep, err := jd.Summary(ctx)
			if err != nil {
				t.Fatalf("json summary: %v", err)
			}
			if bsum != jsum || simOf(bsrep) != simOf(jsrep) {
				t.Errorf("summary diverges across encodings: binary %+v, json %+v", bsum, jsum)
			}

			// A mixed batch over both encodings: per-item results must
			// match the single-query answers bit-for-bit, and the
			// out-of-range item fails alone without poisoning the batch.
			k := int(min(5, n))
			batch := []parselclient.DatasetQuery{
				parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpSelect, Rank: rank}),
				parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpMedian}),
				parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpQuantiles, Qs: qs}),
				parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpSelect, Rank: n + 1}), // out of range
				parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpTopK, K: k}),
				parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpSummary}),
			}
			jres, err := jd.QueryMany(ctx, batch)
			if err != nil {
				t.Fatalf("json querymany: %v", err)
			}
			bres, err := bd.QueryMany(ctx, batch)
			if err != nil {
				t.Fatalf("binary querymany: %v", err)
			}
			for i := range batch {
				jb, bb := jres[i], bres[i]
				if (jb.Err() == nil) != (bb.Err() == nil) {
					t.Fatalf("batch[%d] verdicts diverge: json %v, binary %v", i, jb.Err(), bb.Err())
				}
				if jb.Err() != nil {
					continue
				}
				if !slices.Equal(bb.Values, jb.Values) || simOf(bb.Report.Report()) != simOf(jb.Report.Report()) {
					t.Errorf("batch[%d] diverges across encodings: binary %v %+v, json %v %+v",
						i, bb.Values, bb.Report, jb.Values, jb.Report)
				}
				if (jb.Value == nil) != (bb.Value == nil) ||
					(jb.Value != nil && *jb.Value != *bb.Value) {
					t.Errorf("batch[%d] scalar diverges across encodings", i)
				}
			}
			if !errors.Is(bres[3].Err(), parsel.ErrRankRange) {
				t.Errorf("batch out-of-range item: %v, want ErrRankRange", bres[3].Err())
			}
			if bres[1].Value == nil {
				t.Fatal("batch median carries no value")
			}
			bmed, err := bd.Median(ctx)
			if err != nil {
				t.Fatalf("binary median: %v", err)
			}
			if *bres[1].Value != bmed.Value || simOf(bres[1].Report.Report()) != simOf(bmed.Report) {
				t.Errorf("batch median %d %+v diverges from single query %d %+v",
					*bres[1].Value, bres[1].Report, bmed.Value, simOf(bmed.Report))
			}

			for _, rd := range []*parselclient.RemoteDataset{jd, bd} {
				if _, err := rd.Delete(ctx); err != nil {
					t.Fatalf("delete: %v", err)
				}
			}
		})
	}
}

// TestDaemonQueryManyValidation pins the batch endpoint's structural
// verdicts: empty batches, per-item timeouts, over-limit batches and
// bad kinds fail the whole request with a 400 and a stable code.
func TestDaemonQueryManyValidation(t *testing.T) {
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2},
		serve.Options{Limits: serve.Limits{MaxBatch: 4}})
	defer d.close()
	rd := d.client.Dataset("qv")
	if _, err := rd.Upload(ctx, [][]int64{{3, 1, 4}, {1, 5}}); err != nil {
		t.Fatal(err)
	}

	check := func(name string, queries []parselclient.DatasetQuery, wantCode parselclient.Code) {
		t.Helper()
		_, err := rd.QueryMany(ctx, queries)
		var api *parselclient.APIError
		if !errors.As(err, &api) || api.Code != wantCode || api.Status != http.StatusBadRequest {
			t.Errorf("%s: err %v, want 400 %s", name, err, wantCode)
		}
	}
	check("empty batch", nil, parselclient.CodeMissingField)
	check("per-item timeout", []parselclient.DatasetQuery{
		{Kind: "median", TimeoutMS: 50},
	}, parselclient.CodeLimitExceeded)
	five := make([]parselclient.DatasetQuery, 5)
	for i := range five {
		five[i] = parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpMedian})
	}
	check("over MaxBatch", five, parselclient.CodeLimitExceeded)
	check("bad kind", []parselclient.DatasetQuery{{Kind: "mean"}}, parselclient.CodeBadKind)

	// An absent dataset 404s the whole batch.
	_, err := d.client.Dataset("never-uploaded").QueryMany(ctx,
		[]parselclient.DatasetQuery{parselclient.DatasetQueryOf(parsel.Query{Op: parsel.OpMedian})})
	if !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Errorf("absent dataset: err %v, want ErrDatasetNotFound", err)
	}
}

// TestDaemonFrameUploadErrors pins the binary upload's failure
// verdicts: corruption and truncation are deterministic 400 bad_frame
// (with the reservation unwound — a later upload must succeed), a
// declared-oversize body is 413 too_large, and a JSON body on the
// frame content type is bad_frame, not a hang or a panic.
func TestDaemonFrameUploadErrors(t *testing.T) {
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()
	shards := [][]int64{{3, 1, 4, 1, 5}, {9, 2, 6}}
	valid := snapshot.Encode(snapshot.Header{}, shards)

	put := func(body []byte, length int64) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			d.ts.URL+"/v1/datasets/frame-err", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = length
		req.Header.Set("Content-Type", parselclient.ContentTypeFrame)
		res, err := d.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantCode := func(res *http.Response, status int, code parselclient.Code) {
		t.Helper()
		defer res.Body.Close()
		data, _ := io.ReadAll(res.Body)
		if res.StatusCode != status || !strings.Contains(string(data), fmt.Sprintf("%q", code)) {
			t.Errorf("got %d %s, want %d %s", res.StatusCode, data, status, code)
		}
	}

	corrupt := slices.Clone(valid)
	corrupt[len(corrupt)-10] ^= 0x40
	wantCode(put(corrupt, int64(len(corrupt))), http.StatusBadRequest, parselclient.CodeBadFrame)
	wantCode(put(valid[:len(valid)-5], int64(len(valid)-5)), http.StatusBadRequest, parselclient.CodeBadFrame)
	wantCode(put([]byte(`{"shards":[[1]]}`), 16), http.StatusBadRequest, parselclient.CodeBadFrame)

	// A declared-oversize ContentLength is refused up front. The Go
	// client refuses to send a short body under a huge ContentLength, so
	// this probe drives the handler directly.
	oversize := httptest.NewRequest(http.MethodPut, "/v1/datasets/frame-err", bytes.NewReader(valid))
	oversize.ContentLength = d.server.Stats().Datasets.BudgetBytes + 1<<30
	oversize.Header.Set("Content-Type", parselclient.ContentTypeFrame)
	rec := httptest.NewRecorder()
	d.server.ServeHTTP(rec, oversize)
	wantCode(rec.Result(), http.StatusRequestEntityTooLarge, parselclient.CodeTooLarge)

	// Every failure unwound its reservation: the budget gauge is zero
	// and a clean binary upload of the same id succeeds.
	if got := d.server.Stats().Datasets.ResidentBytes; got != 0 {
		t.Errorf("failed uploads leaked %d resident bytes", got)
	}
	bc := binaryClient(d)
	info, err := bc.Dataset("frame-err").Upload(ctx, shards)
	if err != nil {
		t.Fatalf("clean upload after failures: %v", err)
	}
	if info.N != 8 || info.Procs != 2 {
		t.Errorf("upload info %+v, want n=8 procs=2", info)
	}
}

// plainRecorder hides ResponseRecorder's Flush, implementing only
// http.ResponseWriter.
type plainRecorder struct {
	w http.ResponseWriter
}

func (p *plainRecorder) Header() http.Header         { return p.w.Header() }
func (p *plainRecorder) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *plainRecorder) WriteHeader(code int)        { p.w.WriteHeader(code) }

// TestStatusWriterForwardsOptionalInterfaces pins the recovery
// middleware's writer wrapping: http.NewResponseController(w).Flush()
// in a handler reaches the underlying writer when it can flush and
// reports http.ErrNotSupported when it cannot, and a flushed response
// is never overwritten by the recovery 500 of a later panic.
func TestStatusWriterForwardsOptionalInterfaces(t *testing.T) {
	var flushErr error
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, serve.Options{
		Middleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Probe", "flushed")
				if flushErr = http.NewResponseController(w).Flush(); flushErr != nil {
					next.ServeHTTP(w, r)
					return
				}
				panic("after flush")
			})
		},
		Logger: slog.New(slog.DiscardHandler),
	})
	defer d.close()

	rec := httptest.NewRecorder()
	d.server.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if flushErr != nil {
		t.Fatalf("Flush through the wrapper: %v", flushErr)
	}
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Probe") != "flushed" || rec.Body.Len() != 0 {
		t.Errorf("flushed response then panic: status %d, X-Probe %q, body %q; want the flushed 200 left alone",
			rec.Code, rec.Header().Get("X-Probe"), rec.Body.String())
	}

	plain := httptest.NewRecorder()
	d.server.ServeHTTP(&plainRecorder{plain}, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !errors.Is(flushErr, http.ErrNotSupported) {
		t.Errorf("Flush on a writer that cannot flush: %v, want http.ErrNotSupported", flushErr)
	}
	if plain.Flushed || plain.Code != http.StatusOK {
		t.Errorf("plain writer: flushed %v, status %d; want an unflushed 200 from the handler", plain.Flushed, plain.Code)
	}
}
