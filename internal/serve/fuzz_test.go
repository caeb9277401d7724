package serve_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"parsel"
	"parsel/internal/serve"
	"parsel/parselclient"
)

// knownCodes is the closed set of wire codes ParseRequestOf may emit.
var knownCodes = map[parselclient.Code]bool{
	parselclient.CodeBadJSON:       true,
	parselclient.CodeMissingField:  true,
	parselclient.CodeLimitExceeded: true,
	parselclient.CodeTooLarge:      true,
	parselclient.CodeBadQuantile:   true,
	parselclient.CodeNotFound:      true,
}

// fuzzLimits are deliberately tight so the fuzzer reaches every limit
// branch with small inputs.
var fuzzLimits = serve.Limits{MaxBodyBytes: 1 << 16, MaxProcs: 16, MaxRanks: 32, MaxBatch: 8}

// FuzzParseRequest throws adversarial bytes at the daemon's request
// decoder across every endpoint: it must never panic, every rejection
// must be a *ParseError carrying a known wire code, and every accepted
// request must satisfy the invariants the handlers rely on (required
// fields present, quantiles finite and in range, limits respected).
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		`{"shards": [[1,2],[3]], "rank": 2}`,
		`{"shards": [[1,2],[3]], "rank": -5}`,
		`{"shards": [], "ranks": [0, -1, 99999999999]}`,
		`{"shards": [[1]], "q": 0.5}`,
		`{"shards": [[1]], "q": NaN}`,
		`{"shards": [[1]], "q": 1e999}`,
		`{"shards": [[1]], "qs": [0.5, -0.1, 2.5]}`,
		`{"shards": [[9007199254740993, -42]], "qs": []}`,
		`{"shards": [[1]], "k": -3}`,
		`{"shards": [[1]], "k": 3, "timeout_ms": -100}`,
		`{"shards": [[1]], "k": 3, "timeout_ms": 9300000000000}`,
		`{"shards": [[1]], "k": 3, "timeout_ms": 18446744073710}`,
		`{"shards": null, "rank": 1}`,
		`{"shards": [[1]], "rank": 1, "unknown_field": {"a": [1,2]}}`,
		`{"shards": [[1.5]], "rank": 1}`,
		`{`,
		`[]`,
		`"shards"`,
		``,
		strings.Repeat(`[`, 2000),
		`{"shards": [` + strings.Repeat(`[1],`, 40) + `[1]], "rank": 1}`,
	}
	for ep := 0; ep < 8; ep++ {
		for _, s := range seeds {
			f.Add(uint8(ep), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, epRaw uint8, body []byte) {
		ep := parsel.Op(int(epRaw) % 8)
		req, q, err := serve.ParseRequestOf[int64](ep, body, fuzzLimits)
		if err != nil {
			var pe *serve.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ep %v: non-structured decode error %T: %v", ep, err, err)
			}
			if !knownCodes[pe.Code] {
				t.Fatalf("ep %v: unknown wire code %q", ep, pe.Code)
			}
			if pe.Msg == "" {
				t.Fatalf("ep %v: empty error message for code %s", ep, pe.Code)
			}
			return
		}
		// Accepted: the invariants the handlers dereference without
		// checking.
		if req.Shards == nil {
			t.Fatalf("ep %v: accepted request without shards", ep)
		}
		if len(req.Shards) > fuzzLimits.MaxProcs {
			t.Fatalf("ep %v: accepted %d shards over limit", ep, len(req.Shards))
		}
		if req.TimeoutMS < 0 || req.TimeoutMS > 24*60*60*1000 {
			t.Fatalf("ep %v: accepted out-of-bounds timeout_ms %d (duration conversion could overflow)",
				ep, req.TimeoutMS)
		}
		checkItem(t, ep, req.QueryParams, q)
	})
}

// checkItem asserts the invariants an accepted item guarantees the
// handlers: op's required wire fields are present and in range, and
// the resolved Query carries exactly their values.
func checkItem(t *testing.T, op parsel.Op, it parselclient.QueryParams, q parsel.Query) {
	t.Helper()
	if q.Op != op {
		t.Fatalf("%v item resolved to op %v", op, q.Op)
	}
	switch op {
	case parsel.OpSelect:
		if it.Rank == nil || q.Rank != *it.Rank {
			t.Fatalf("select accepted with rank %v, query rank %d", it.Rank, q.Rank)
		}
	case parsel.OpQuantile:
		if it.Q == nil || math.IsNaN(*it.Q) || *it.Q < 0 || *it.Q > 1 || q.Q != *it.Q {
			t.Fatalf("quantile accepted with q=%v, query q %v", it.Q, q.Q)
		}
	case parsel.OpQuantiles:
		if len(it.Qs) == 0 || len(it.Qs) > fuzzLimits.MaxRanks || len(q.Qs) != len(it.Qs) {
			t.Fatalf("quantiles accepted with %d qs, query %d", len(it.Qs), len(q.Qs))
		}
		for _, v := range it.Qs {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				t.Fatalf("quantiles accepted q=%v", v)
			}
		}
	case parsel.OpRanks:
		if len(it.Ranks) == 0 || len(it.Ranks) > fuzzLimits.MaxRanks || len(q.Ranks) != len(it.Ranks) {
			t.Fatalf("ranks accepted with %d ranks, query %d", len(it.Ranks), len(q.Ranks))
		}
	case parsel.OpTopK, parsel.OpBottomK:
		if it.K == nil || q.K != *it.K {
			t.Fatalf("%v accepted with k %v, query k %d", op, it.K, q.K)
		}
	}
}

// knownItemCodes is the closed set of wire codes the dataset-query
// decoders may emit.
var knownItemCodes = map[parselclient.Code]bool{
	parselclient.CodeBadJSON:       true,
	parselclient.CodeMissingField:  true,
	parselclient.CodeLimitExceeded: true,
	parselclient.CodeTooLarge:      true,
	parselclient.CodeBadQuantile:   true,
	parselclient.CodeBadKind:       true,
}

// FuzzParseDatasetQuery throws adversarial bytes at the resident
// dataset decoders, ParseDatasetQuery (even selector) and
// ParseDatasetQueryMany (odd): they must never panic, every rejection
// must be a *ParseError carrying a known wire code, and every accepted
// batch must stay within the limits and the timeout bound, with every
// item naming a known op and key kind, leaving the deadline to the
// batch, and carrying its op's required fields.
func FuzzParseDatasetQuery(f *testing.F) {
	items := []string{
		`{"kind": "select", "rank": 2}`,
		`{"kind": "select"}`,
		`{"kind": "median", "key_kind": "float64"}`,
		`{"kind": "median", "key_kind": "decimal"}`,
		`{"kind": "quantile", "q": 0}`,
		`{"kind": "quantile", "q": 1.5}`,
		`{"kind": "quantiles", "qs": [0.1, 0.5, 0.9]}`,
		`{"kind": "quantiles", "qs": []}`,
		`{"kind": "ranks", "ranks": [1, -3, 99999999999]}`,
		`{"kind": "topk", "k": 3, "key_kind": "string"}`,
		`{"kind": "bottomk"}`,
		`{"kind": "summary", "timeout_ms": 50}`,
		`{"kind": "summary", "timeout_ms": -1}`,
		`{"kind": "mean"}`,
		`{"kind": ""}`,
		`{"rank": 1}`,
		`{"kind": 7}`,
	}
	for _, it := range items {
		f.Add(uint8(0), []byte(it))
		f.Add(uint8(1), []byte(`{"queries": [`+it+`], "timeout_ms": 20}`))
	}
	for _, s := range []string{
		`{"queries": []}`,
		`{"queries": null}`,
		`{"queries": [{"kind": "median"}, {"kind": "select", "rank": 1}, {"kind": "topk", "k": 0}]}`,
		`{"queries": [` + strings.Repeat(`{"kind": "median"},`, 9) + `{"kind": "median"}]}`,
		`{"queries": [{"kind": "median"}], "timeout_ms": 9300000000000}`,
		`{`, `[]`, ``, strings.Repeat(`{"queries":[`, 500),
	} {
		f.Add(uint8(1), []byte(s))
		f.Add(uint8(0), []byte(s))
	}
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		parse := serve.ParseDatasetQuery
		if sel%2 == 1 {
			parse = serve.ParseDatasetQueryMany
		}
		qm, qs, err := parse(body, fuzzLimits)
		if err != nil {
			var pe *serve.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-structured decode error %T: %v", err, err)
			}
			if !knownItemCodes[pe.Code] {
				t.Fatalf("unknown wire code %q", pe.Code)
			}
			if pe.Msg == "" {
				t.Fatalf("empty error message for code %s", pe.Code)
			}
			return
		}
		if len(qm.Queries) == 0 || len(qm.Queries) > fuzzLimits.MaxBatch || len(qs) != len(qm.Queries) {
			t.Fatalf("accepted a batch of %d items (%d queries)", len(qm.Queries), len(qs))
		}
		if qm.TimeoutMS < 0 || qm.TimeoutMS > 24*60*60*1000 {
			t.Fatalf("accepted out-of-bounds timeout_ms %d", qm.TimeoutMS)
		}
		for i := range qm.Queries {
			dq := &qm.Queries[i]
			if dq.TimeoutMS != 0 {
				t.Fatalf("accepted item %d with its own timeout_ms %d", i, dq.TimeoutMS)
			}
			op, ok := parsel.ParseOp(dq.Kind)
			if !ok {
				t.Fatalf("item %d accepted with unknown kind %q", i, dq.Kind)
			}
			switch dq.KeyKind {
			case "", parselclient.KeyKindInt64, parselclient.KeyKindFloat64, parselclient.KeyKindString:
			default:
				t.Fatalf("item %d accepted with unknown key kind %q", i, dq.KeyKind)
			}
			checkItem(t, op, dq.QueryParams, qs[i])
		}
	})
}

// knownUploadCodes is the closed set of wire codes ParseDatasetUploadOf
// may emit.
var knownUploadCodes = map[parselclient.Code]bool{
	parselclient.CodeBadJSON:       true,
	parselclient.CodeMissingField:  true,
	parselclient.CodeLimitExceeded: true,
	parselclient.CodeTooLarge:      true,
}

// FuzzParseDatasetUpload throws adversarial bytes at the JSON upload
// decoder, ParseDatasetUploadOf, for the key kind the selector picks
// (int64, float64, string): it must never panic, every rejection must
// be a *ParseError carrying a known wire code, and an accepted upload
// carries shards and never more of them than MaxProcs.
func FuzzParseDatasetUpload(f *testing.F) {
	seeds := []string{
		`{"shards": [[1,2],[3]]}`,
		`{"shards": [[1.5, -2.25], []], "key_kind": "float64"}`,
		`{"shards": [["b", "a"], ["c"]], "key_kind": "string"}`,
		`{"shards": []}`,
		`{"shards": null}`,
		`{"shards": [[9007199254740993, -42]]}`,
		`{"shards": [[1e999]]}`,
		`{"shards": [[1]], "unknown_field": {"a": [1,2]}}`,
		`{"key_kind": "int64"}`,
		`{"shards": [` + strings.Repeat(`[1],`, 20) + `[1]]}`,
		`{`, `[]`, `""`, ``,
		strings.Repeat(`[`, 2000),
	}
	for sel := 0; sel < 3; sel++ {
		for _, s := range seeds {
			f.Add(uint8(sel), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		switch sel % 3 {
		case 0:
			checkUpload[int64](t, body)
		case 1:
			checkUpload[float64](t, body)
		default:
			checkUpload[string](t, body)
		}
	})
}

// checkUpload decodes body as a K-keyed upload and asserts the
// decoder's contract.
func checkUpload[K parselclient.Key](t *testing.T, body []byte) {
	t.Helper()
	kind := parselclient.KeyKindOf[K]()
	up, err := serve.ParseDatasetUploadOf[K](body, fuzzLimits)
	if err != nil {
		var pe *serve.ParseError
		if !errors.As(err, &pe) || !knownUploadCodes[pe.Code] || pe.Msg == "" {
			t.Fatalf("%s upload rejected with %T %v, want a *ParseError with a known code", kind, err, err)
		}
		return
	}
	if up.Shards == nil || len(up.Shards) > fuzzLimits.MaxProcs {
		t.Fatalf("%s upload accepted with %d shards (nil: %v), limit %d",
			kind, len(up.Shards), up.Shards == nil, fuzzLimits.MaxProcs)
	}
}
