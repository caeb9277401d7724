package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"parsel"
	"parsel/parselclient"
)

// opOfPath resolves a query endpoint path, /v1/<op>, to its op.
func opOfPath(path string) (parsel.Op, bool) {
	name, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return 0, false
	}
	return parsel.ParseOp(name)
}

// opList names every op for error messages: "select, median, ... or
// summary".
var opList = func() string {
	ops := parsel.Ops()
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.String()
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}()

// Limits bounds what a single request may ask of the daemon. Zero
// fields take defaults.
type Limits struct {
	// MaxBodyBytes caps the request body (default 64 MiB). Enforced
	// with http.MaxBytesReader at the handler and re-checked by
	// ParseRequest.
	MaxBodyBytes int64
	// MaxProcs caps the shard count — each shard is one simulated
	// processor, i.e. goroutines and channel fabric (default 256).
	MaxProcs int
	// MaxRanks caps the rank/quantile count of a multi-rank request
	// (default 4096).
	MaxRanks int
	// MaxBatch caps the item count of a querymany batch (default 256).
	MaxBatch int
}

// withDefaults fills the zero-valued limits.
func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = 64 << 20
	}
	if l.MaxProcs == 0 {
		l.MaxProcs = 256
	}
	if l.MaxRanks == 0 {
		l.MaxRanks = 4096
	}
	if l.MaxBatch == 0 {
		l.MaxBatch = 256
	}
	return l
}

// maxTimeoutMS bounds timeout_ms on the wire: 24 hours, in
// milliseconds.
const maxTimeoutMS = 24 * 60 * 60 * 1000

// ParseError is a structured request-decoding failure; it maps onto the
// wire error body verbatim.
type ParseError struct {
	// Code is the stable wire code (parselclient.Code*).
	Code parselclient.Code
	// Msg is the human-readable detail.
	Msg string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// parseErrf builds a ParseError.
func parseErrf(code parselclient.Code, format string, args ...any) *ParseError {
	return &ParseError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// sniffKeyKind resolves a request's key kind before the typed parse:
// the body's "key_kind" field, the X-Parsel-Kind header (uploads), or
// the int64 default when neither is present. The two sources must
// agree when both are given. A malformed body sniffs as the default —
// the typed parse reports the JSON error with full context.
func sniffKeyKind(body []byte, header string) (string, error) {
	var probe struct {
		KeyKind string `json:"key_kind"`
	}
	if len(body) > 0 {
		_ = json.Unmarshal(body, &probe)
	}
	kind := probe.KeyKind
	if header != "" {
		h := strings.ToLower(strings.TrimSpace(header))
		if kind != "" && kind != h {
			return "", parseErrf(parselclient.CodeBadKind,
				"key_kind %q disagrees with %s header %q", kind, parselclient.KindHeader, header)
		}
		kind = h
	}
	if kind == "" {
		return parselclient.KeyKindInt64, nil
	}
	if err := checkKeyKind(kind); err != nil {
		return "", err
	}
	return kind, nil
}

// checkKeyKind validates an optional "key_kind" wire field: empty
// (the int64 default) or one of the registry's kinds.
func checkKeyKind(kind string) error {
	switch kind {
	case "", parselclient.KeyKindInt64, parselclient.KeyKindFloat64, parselclient.KeyKindString:
		return nil
	}
	return parseErrf(parselclient.CodeBadKind,
		"unknown key kind %q (want int64, float64 or string)", kind)
}

// ParseRequestOf decodes and validates one /v1/<op> body under key kind
// K, returning the decoded body and the Query it carries. It never
// panics on any input; every failure is a *ParseError carrying a stable
// wire code. Validation here is structural (required fields,
// configured limits, non-finite numbers); population-dependent checks
// (rank within [1, n]) stay in the engine, whose typed errors the
// handler maps to wire codes the same way.
func ParseRequestOf[K parselclient.Key](op parsel.Op, body []byte, lim Limits) (*parselclient.RequestOf[K], parsel.Query, error) {
	lim = lim.withDefaults()
	var req parselclient.RequestOf[K]
	if err := decodeBody(body, lim, "request", &req); err != nil {
		return nil, parsel.Query{}, err
	}
	if err := checkShards(req.Shards, lim); err != nil {
		return nil, parsel.Query{}, err
	}
	if err := checkTimeout(req.TimeoutMS); err != nil {
		return nil, parsel.Query{}, err
	}
	q, err := parseQuery(op, &req.QueryParams, lim)
	if err != nil {
		return nil, parsel.Query{}, err
	}
	return &req, q, nil
}

// decodeBody enforces the body limit and decodes body into v; what
// names the body in the bad_json message.
func decodeBody(body []byte, lim Limits, what string, v any) error {
	if int64(len(body)) > lim.MaxBodyBytes {
		return parseErrf(parselclient.CodeTooLarge,
			"body is %d bytes, limit %d", len(body), lim.MaxBodyBytes)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return parseErrf(parselclient.CodeBadJSON, "decode %s: %v", what, err)
	}
	return nil
}

// checkShards requires a key-carrying body's shards and bounds their
// count: each shard is one simulated processor.
func checkShards[K any](shards [][]K, lim Limits) error {
	if shards == nil {
		return parseErrf(parselclient.CodeMissingField, `"shards" is required`)
	}
	if len(shards) > lim.MaxProcs {
		return parseErrf(parselclient.CodeLimitExceeded,
			"%d shards, limit %d simulated processors", len(shards), lim.MaxProcs)
	}
	return nil
}

// checkTimeout bounds timeout_ms so the millisecond->Duration
// conversion can never overflow int64 nanoseconds (which would wrap the
// admission deadline negative or tiny, bypassing the server's
// MaxTimeout cap). Any server-side cap is far below 24h anyway.
func checkTimeout(ms int64) error {
	if ms < 0 {
		return parseErrf(parselclient.CodeLimitExceeded, "timeout_ms %d is negative", ms)
	}
	if ms > maxTimeoutMS {
		return parseErrf(parselclient.CodeLimitExceeded,
			"timeout_ms %d exceeds the maximum %d (24h)", ms, int64(maxTimeoutMS))
	}
	return nil
}

// parseQuery is the one parse step from a wire item to a parsel.Query:
// it enforces op's required fields and limits and reads exactly the
// fields op carries. Shard requests and dataset queries share it, so
// both wire paths validate identically.
func parseQuery(op parsel.Op, p *parselclient.QueryParams, lim Limits) (parsel.Query, error) {
	q := parsel.Query{Op: op}
	switch op {
	case parsel.OpSelect:
		if p.Rank == nil {
			return q, parseErrf(parselclient.CodeMissingField, `"rank" is required for select`)
		}
		q.Rank = *p.Rank
	case parsel.OpQuantile:
		if p.Q == nil {
			return q, parseErrf(parselclient.CodeMissingField, `"q" is required for quantile`)
		}
		if err := checkQuantile(*p.Q); err != nil {
			return q, err
		}
		q.Q = *p.Q
	case parsel.OpQuantiles:
		if len(p.Qs) == 0 {
			return q, parseErrf(parselclient.CodeMissingField, `"qs" must be a non-empty array`)
		}
		if len(p.Qs) > lim.MaxRanks {
			return q, parseErrf(parselclient.CodeLimitExceeded,
				"%d quantiles, limit %d", len(p.Qs), lim.MaxRanks)
		}
		for _, v := range p.Qs {
			if err := checkQuantile(v); err != nil {
				return q, err
			}
		}
		q.Qs = p.Qs
	case parsel.OpRanks:
		if len(p.Ranks) == 0 {
			return q, parseErrf(parselclient.CodeMissingField, `"ranks" must be a non-empty array`)
		}
		if len(p.Ranks) > lim.MaxRanks {
			return q, parseErrf(parselclient.CodeLimitExceeded,
				"%d ranks, limit %d", len(p.Ranks), lim.MaxRanks)
		}
		q.Ranks = p.Ranks
	case parsel.OpTopK, parsel.OpBottomK:
		if p.K == nil {
			return q, parseErrf(parselclient.CodeMissingField, `"k" is required`)
		}
		q.K = *p.K
	case parsel.OpMedian, parsel.OpSummary:
		// No parameters.
	default:
		return q, parseErrf(parselclient.CodeNotFound, "unknown query op %v", op)
	}
	return q, nil
}

// ParseDatasetUploadOf decodes and validates a PUT /v1/datasets/{id}
// body under key kind K. Like ParseRequestOf it never panics and
// reports every failure as a *ParseError with a stable wire code.
func ParseDatasetUploadOf[K parselclient.Key](body []byte, lim Limits) (*parselclient.DatasetUploadOf[K], error) {
	lim = lim.withDefaults()
	var up parselclient.DatasetUploadOf[K]
	if err := decodeBody(body, lim, "upload", &up); err != nil {
		return nil, err
	}
	if err := checkShards(up.Shards, lim); err != nil {
		return nil, err
	}
	return &up, nil
}

// parseItem validates one dataset-query item — its kind, key kind,
// timeout and op fields — and resolves it to a Query. Single /query
// bodies and every /querymany item go through it.
func parseItem(dq *parselclient.DatasetQuery, lim Limits) (parsel.Query, error) {
	if dq.Kind == "" {
		return parsel.Query{}, parseErrf(parselclient.CodeMissingField, `"kind" is required`)
	}
	op, ok := parsel.ParseOp(dq.Kind)
	if !ok {
		return parsel.Query{}, parseErrf(parselclient.CodeBadKind,
			"unknown query kind %q (want %s)", dq.Kind, opList)
	}
	if err := checkKeyKind(dq.KeyKind); err != nil {
		return parsel.Query{}, err
	}
	if err := checkTimeout(dq.TimeoutMS); err != nil {
		return parsel.Query{}, err
	}
	return parseQuery(op, &dq.QueryParams, lim)
}

// ParseDatasetQuery decodes and validates a POST /v1/datasets/{id}/query
// body as a batch of one: the body is the only item, and its
// timeout_ms becomes the batch's admission deadline. Like
// ParseRequestOf it never panics and reports every failure as a
// *ParseError.
func ParseDatasetQuery(body []byte, lim Limits) (*parselclient.DatasetQueryMany, []parsel.Query, error) {
	lim = lim.withDefaults()
	var dq parselclient.DatasetQuery
	if err := decodeBody(body, lim, "query", &dq); err != nil {
		return nil, nil, err
	}
	q, err := parseItem(&dq, lim)
	if err != nil {
		return nil, nil, err
	}
	timeoutMS := dq.TimeoutMS
	dq.TimeoutMS = 0
	return &parselclient.DatasetQueryMany{Queries: []parselclient.DatasetQuery{dq}, TimeoutMS: timeoutMS},
		[]parsel.Query{q}, nil
}

// ParseDatasetQueryMany decodes and validates a POST
// /v1/datasets/{id}/querymany body. Structural failures anywhere in the
// batch fail the whole request with a 400 — a malformed batch is a
// client bug, unlike per-item runtime failures (rank out of range, pool
// timeout), which the handler reports per item. Returned queries align
// with the body's items.
func ParseDatasetQueryMany(body []byte, lim Limits) (*parselclient.DatasetQueryMany, []parsel.Query, error) {
	lim = lim.withDefaults()
	var qm parselclient.DatasetQueryMany
	if err := decodeBody(body, lim, "querymany", &qm); err != nil {
		return nil, nil, err
	}
	if len(qm.Queries) == 0 {
		return nil, nil, parseErrf(parselclient.CodeMissingField, `"queries" must be a non-empty array`)
	}
	if len(qm.Queries) > lim.MaxBatch {
		return nil, nil, parseErrf(parselclient.CodeLimitExceeded,
			"%d queries, limit %d per batch", len(qm.Queries), lim.MaxBatch)
	}
	if err := checkTimeout(qm.TimeoutMS); err != nil {
		return nil, nil, err
	}
	qs := make([]parsel.Query, len(qm.Queries))
	for i := range qm.Queries {
		dq := &qm.Queries[i]
		if dq.TimeoutMS != 0 {
			return nil, nil, parseErrf(parselclient.CodeLimitExceeded,
				"queries[%d]: timeout_ms must be 0 — the batch shares one admission deadline", i)
		}
		q, err := parseItem(dq, lim)
		if err != nil {
			pe := err.(*ParseError)
			return nil, nil, parseErrf(pe.Code, "queries[%d]: %s", i, pe.Msg)
		}
		qs[i] = q
	}
	return &qm, qs, nil
}

// maxDatasetIDLen bounds dataset ids on the wire.
const maxDatasetIDLen = 128

// checkDatasetID validates a dataset id from the URL: 1..128 characters
// out of [A-Za-z0-9._-], not beginning with a dot — "." and ".." are
// path navigation, and a leading dot would produce hidden-file snapshot
// names.
func checkDatasetID(id string) error {
	if id == "" {
		return parseErrf(parselclient.CodeBadDatasetID, "empty dataset id")
	}
	if id[0] == '.' {
		return parseErrf(parselclient.CodeBadDatasetID,
			"dataset id %q begins with a dot", id)
	}
	if len(id) > maxDatasetIDLen {
		return parseErrf(parselclient.CodeBadDatasetID,
			"dataset id is %d characters, limit %d", len(id), maxDatasetIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return parseErrf(parselclient.CodeBadDatasetID,
				"dataset id carries %q; allowed characters are [A-Za-z0-9._-]", c)
		}
	}
	return nil
}

// checkQuantile rejects quantiles the engine would also reject, plus
// non-finite values that cannot even arrive through valid JSON (the
// decoder is also exercised on adversarial bytes directly).
func checkQuantile(q float64) error {
	if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 || q > 1 {
		return parseErrf(parselclient.CodeBadQuantile, "quantile %v outside [0,1]", q)
	}
	return nil
}
