package parselclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"parsel"
	"parsel/internal/snapshot"
)

// Client talks to a parseld daemon. The zero value is not usable;
// construct with New, which takes every setting as an Option. Methods
// are safe for concurrent use.
//
// The query surface — Run, Over and Dataset — is the int64 one,
// promoted from the embedded Keyed[int64] view.
type Client struct {
	KindClient[int64]

	base string
	hc   *http.Client

	token            string        // WithToken
	binary           bool          // WithBinary
	retry            RetryPolicy   // WithRetry
	queryTimeout     time.Duration // WithLimits
	maxResponseBytes int64         // WithLimits

	// retryMu guards the jitter stream and the token-bucket retry
	// budget; the counters are atomics on their own.
	retryMu    sync.Mutex
	rng        *rand.Rand
	budget     float64
	budgetInit bool
	retryCount retryCounters

	// collector, when non-nil, receives per-operation telemetry (see
	// Collector and WithCollector).
	collector Collector
}

// Option configures a Client at construction. The same options
// configure the cluster router (cluster.New), which builds one
// per-node Client from them — token, binary negotiation and retry
// policy carry through the ring unchanged.
type Option func(*Client)

// WithHTTPClient sets the underlying http.Client (transport, TLS,
// connection pool). nil means http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithToken sets the bearer token sent in the Authorization header of
// every request — the static per-tenant credential of a daemon running
// with -tenants. Such a daemon refuses requests without it (or with a
// token matching no tenant) with 401 unknown_tenant.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// WithBinary switches the key-carrying paths to the binary frame
// encoding (ContentTypeFrame): dataset uploads stream the
// internal/snapshot format instead of marshaling a JSON body (the
// daemon decodes both through one path), and queries send Accept so
// bulk results come back framed. Responses to a JSON-only daemon still
// decode — negotiation is per response Content-Type — and results are
// bit-identical either way, simulated metrics included.
func WithBinary(on bool) Option {
	return func(c *Client) { c.binary = on }
}

// WithRetry sets the policy for transparent retries of transient
// failures (see RetryPolicy; every operation on this wire is
// idempotent, so all of them retry). The zero value disables retries.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// ClientLimits bounds what the client sends and accepts; the zero
// value means unbounded (QueryTimeout 0 = no server-side wait bound
// beyond the context deadline, MaxResponseBytes 0 = read whole
// responses).
type ClientLimits struct {
	// QueryTimeout, when positive, is sent as timeout_ms on every
	// query: the server-side bound on waiting for a free simulated
	// machine. Independent of it, a context deadline also propagates as
	// timeout_ms (whichever is tighter), so a client deadline is honored
	// on the server rather than discovered by a dropped connection.
	// timeout_ms is recomputed from the remaining budget on every retry
	// attempt, so a server is never told a budget the caller no longer
	// has.
	QueryTimeout time.Duration
	// MaxResponseBytes caps how many response-body bytes the client
	// will buffer per attempt; a larger response fails the call rather
	// than ballooning memory. Applies to query/info responses, not to
	// streamed snapshot exports (DatasetSnapshot hands back the raw
	// stream).
	MaxResponseBytes int64
}

// WithLimits sets the client-side limits (see ClientLimits).
func WithLimits(l ClientLimits) Option {
	return func(c *Client) {
		c.queryTimeout = l.QueryTimeout
		c.maxResponseBytes = l.MaxResponseBytes
	}
}

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:7075"), configured by the options:
//
//	c := parselclient.New(url,
//		parselclient.WithToken(token),
//		parselclient.WithBinary(true),
//		parselclient.WithRetry(parselclient.RetryPolicy{MaxAttempts: 4}))
//
// With no options the client uses http.DefaultClient, no token, JSON
// encoding and no retries.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	c.KindClient = KindClient[int64]{c: c}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a structured error response from the daemon.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable wire code (see the Code constants).
	Code Code
	// Message is the human-readable detail.
	Message string
	// RetryAfter is the server's backoff hint from the Retry-After
	// header, if the response carried one; a retrying client waits at
	// least this long before the next attempt.
	RetryAfter time.Duration
}

// Error formats the error for humans.
func (e *APIError) Error() string {
	return fmt.Sprintf("parseld: %s (%d %s)", e.Message, e.Status, e.Code)
}

// ErrQueueFull reports that the daemon's admission queue was full; the
// request was rejected before queueing (HTTP 429, code "queue_full").
var ErrQueueFull = errors.New("parselclient: server admission queue full")

// ErrDatasetNotFound reports that no resident dataset has the requested
// id: never uploaded, deleted, or TTL-evicted (HTTP 404, code
// "dataset_not_found").
var ErrDatasetNotFound = errors.New("parselclient: dataset not found")

// ErrResidentBudget reports that an upload was refused because it would
// exceed the daemon's resident-bytes budget (HTTP 413, code
// "resident_budget").
var ErrResidentBudget = errors.New("parselclient: resident-bytes budget exceeded")

// ErrUnknownTenant reports that the daemon requires tenant
// authentication and the request carried no bearer token, or one that
// matches no configured tenant (HTTP 401, code "unknown_tenant").
var ErrUnknownTenant = errors.New("parselclient: unknown tenant token")

// ErrTenantBudget reports that an upload was refused because it would
// exceed the calling tenant's resident-bytes budget or dataset quota
// (HTTP 413, code "tenant_budget").
var ErrTenantBudget = errors.New("parselclient: tenant budget exceeded")

// ErrKindMismatch reports that a request's key kind was unknown or
// disagreed with the dataset it addressed (HTTP 400, code "bad_kind").
var ErrKindMismatch = errors.New("parselclient: key kind mismatch")

// Is maps wire codes back onto the library's typed errors, so callers
// can handle daemon responses exactly like in-process Pool errors:
// errors.Is(err, parsel.ErrPoolTimeout) is true for a 429 pool_timeout,
// and so on for ErrPoolClosed (shutting_down), ErrRankRange,
// ErrBadQuantile, ErrNoData and ErrNoShards — plus ErrQueueFull for
// admission rejections.
func (e *APIError) Is(target error) bool {
	switch target {
	case parsel.ErrPoolTimeout:
		return e.Code == CodePoolTimeout
	case parsel.ErrPoolClosed:
		return e.Code == CodeShuttingDown
	case parsel.ErrRankRange:
		return e.Code == CodeRankRange
	case parsel.ErrBadQuantile:
		return e.Code == CodeBadQuantile
	case parsel.ErrNoData:
		return e.Code == CodeNoData
	case parsel.ErrNoShards:
		return e.Code == CodeNoShards
	case ErrQueueFull:
		return e.Code == CodeQueueFull
	case ErrDatasetNotFound:
		return e.Code == CodeDatasetNotFound
	case ErrResidentBudget:
		return e.Code == CodeResidentBudget
	case ErrUnknownTenant:
		return e.Code == CodeUnknownTenant
	case ErrTenantBudget:
		return e.Code == CodeTenantBudget
	case ErrKindMismatch:
		return e.Code == CodeBadKind
	}
	return false
}

// timeoutMS computes the timeout_ms to send: the tighter of the
// client's ClientLimits.QueryTimeout and the context's remaining
// budget, in milliseconds (rounded up so a 300us deadline does not
// become "no timeout").
func (c *Client) timeoutMS(ctx context.Context) int64 {
	eff := c.queryTimeout
	bounded := eff > 0
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); !bounded || rem < eff {
			eff = rem
		}
		bounded = true
	}
	if !bounded {
		return 0
	}
	if eff <= 0 {
		// The budget is already spent (a deadline in the past). Zero would
		// mean "no timeout" on the wire — the opposite of the truth — so
		// send the 1ms floor and let the server refuse immediately.
		return 1
	}
	ms := int64((eff + time.Millisecond - 1) / time.Millisecond)
	// The wire bounds timeout_ms at 24h; clamp rather than let the
	// server reject an over-generous client budget.
	const maxTimeoutMS = 24 * 60 * 60 * 1000
	return min(ms, maxTimeoutMS)
}

// KeyKindField returns the "key_kind" value K-kinded bodies carry, in
// requests and responses alike: empty for int64 (keeping the historical
// wire byte-identical), the kind name otherwise.
func KeyKindField[K Key]() string {
	if kind := KeyKindOf[K](); kind != KeyKindInt64 {
		return kind
	}
	return ""
}

// KindClient is a typed view of a Client for one key kind: the same
// connection, retry policy, token and binary negotiation, with the
// query surface typed over K: Run answers one Query over shards, Over
// binds the named parsel.Verbs to it, and Dataset addresses a resident
// dataset. Build one with Keyed; the zero value is not usable. Methods
// are safe for concurrent use (they share the underlying Client's
// synchronization).
type KindClient[K Key] struct {
	c *Client
}

// Keyed returns the K-kinded query surface of c: non-int64 requests
// stamp "key_kind" into their bodies and decode kind-typed responses.
// Keyed[int64](c) behaves exactly like c's own methods.
func Keyed[K Key](c *Client) KindClient[K] {
	return KindClient[K]{c: c}
}

// Client returns the underlying untyped client.
func (kc KindClient[K]) Client() *Client { return kc.c }

// runQuery posts one query body to path and decodes op's answer from
// the response or the structured error. body renders the request for
// one attempt given its timeout_ms, which is recomputed per retry
// attempt from that attempt's remaining budget, not the first
// attempt's. A nil context means no deadline, mirroring the Pool
// methods.
func runQuery[K Key](ctx context.Context, c *Client, path string, op parsel.Op, body func(timeoutMS int64) any) (parsel.Answer[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempt := func(actx context.Context) (io.Reader, int64, string, error) {
		return marshalBody(body(c.timeoutMS(actx)))
	}
	var resp ResponseOf[K]
	if err := c.do(ctx, http.MethodPost, path, attempt, c.binary, &resp); err != nil {
		return parsel.Answer[K]{}, err
	}
	return answerOf(op, &resp)
}

// answerOf reads the fields op answers off a response; a response
// lacking them fails rather than answering zero values.
func answerOf[K Key](op parsel.Op, resp *ResponseOf[K]) (parsel.Answer[K], error) {
	a := parsel.Answer[K]{Values: resp.Values, Report: resp.Report.Report()}
	switch {
	case op.Scalar():
		if resp.Value == nil {
			return parsel.Answer[K]{}, fmt.Errorf("parselclient: %s response carries no value", op)
		}
		a.Value = *resp.Value
	case op == parsel.OpSummary:
		if resp.Summary == nil {
			return parsel.Answer[K]{}, errors.New("parselclient: summary response carries no summary")
		}
		s := resp.Summary
		a.Summary = parsel.FiveNumber[K]{Min: s.Min, Q1: s.Q1, Median: s.Median, Q3: s.Q3, Max: s.Max}
	}
	return a, nil
}

// marshalBody encodes one JSON request body for a single attempt.
func marshalBody(v any) (io.Reader, int64, string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, 0, "", fmt.Errorf("parselclient: encode: %w", err)
	}
	return bytes.NewReader(data), int64(len(data)), ContentTypeJSON, nil
}

// decodeError turns a non-200 body into an *APIError, tolerating
// non-JSON bodies (proxies, panics) by quoting them raw.
func decodeError(status int, data []byte) error {
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error.Code != "" {
		return &APIError{Status: status, Code: eb.Error.Code, Message: eb.Error.Message}
	}
	msg := strings.TrimSpace(string(data))
	if len(msg) > 200 {
		// Truncate on a rune boundary: a cut mid-UTF-8-sequence would
		// leave a mangled trailing byte in the quoted message.
		cut := 200
		for cut > 0 && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut] + "..."
	}
	return &APIError{Status: status, Code: CodeInternal, Message: msg}
}

// Run answers one query over shards on the daemon (POST /v1/<op>),
// like parsel.Pool.Run but over the wire.
func (kc KindClient[K]) Run(ctx context.Context, shards [][]K, q parsel.Query) (parsel.Answer[K], error) {
	params := paramsOf(q)
	return runQuery[K](ctx, kc.c, "/v1/"+q.Op.String(), q.Op, func(timeoutMS int64) any {
		return RequestOf[K]{KeyKind: KeyKindField[K](), Shards: shards, QueryParams: params, TimeoutMS: timeoutMS}
	})
}

// Over returns the named queries over shards, each answered by Run
// over the wire, like parsel.Pool.Over:
//
//	vals, rep, err := client.Over(shards).Quantiles(ctx, []float64{0.5, 0.99})
func (kc KindClient[K]) Over(shards [][]K) parsel.Verbs[K] {
	return func(ctx context.Context, q parsel.Query) (parsel.Answer[K], error) {
		return kc.Run(ctx, shards, q)
	}
}

// Dataset addresses one resident dataset on the daemon by id, typed
// over K. The handle is stateless (no network traffic until a method
// call), so it may be built once and shared across goroutines.
func (kc KindClient[K]) Dataset(id string) *RemoteDatasetOf[K] {
	d := &RemoteDatasetOf[K]{c: kc.c, id: id}
	d.verbs = d.Run
	return d
}

// RemoteDatasetOf mirrors parsel.Dataset over the wire, typed over the
// key kind: upload the shards once, then run any query of the daemon's
// surface against the resident state — the query bodies carry no keys.
// The embedded parsel.Verbs are bound to Run, so the named queries take
// the context first, as on parsel.Dataset (d.Select(ctx, rank)).
// Results, including every simulated metric, are bit-identical to
// posting the same shards with each query. Non-int64 handles stamp
// "key_kind" into uploads and queries, so addressing a dataset of
// another kind fails with bad_kind instead of silently mistyping keys.
// Methods are safe for concurrent use.
type RemoteDatasetOf[K Key] struct {
	verbs[K] // bound to Run

	c  *Client
	id string
}

// verbs is parsel.Verbs under an unexported name, so RemoteDatasetOf
// gains the eight methods without an exported, writable field.
type verbs[K Key] = parsel.Verbs[K]

// RemoteDataset is the int64 instantiation of RemoteDatasetOf — the
// historical client surface, unchanged.
type RemoteDataset = RemoteDatasetOf[int64]

// ID returns the dataset id the handle addresses.
func (d *RemoteDatasetOf[K]) ID() string { return d.id }

// path builds the dataset's URL path, escaping the id.
func (d *RemoteDatasetOf[K]) path(suffix string) string {
	return "/v1/datasets/" + url.PathEscape(d.id) + suffix
}

// bodyFunc builds one attempt's request body: the reader, its length
// (the request's Content-Length), and its Content-Type. The retry loop
// calls it afresh for every attempt — with the attempt's own context —
// so deadline-derived fields (timeout_ms) are recomputed from the
// remaining budget, and streaming bodies (a binary upload's snapshot
// encoder) start from their first byte on every send. An error from it
// is permanent: nothing was sent, and resending cannot change it. A nil
// bodyFunc means no body.
type bodyFunc func(ctx context.Context) (io.Reader, int64, string, error)

// jsonBody adapts pre-marshaled JSON bytes into a bodyFunc (GET/DELETE
// style requests whose bodies carry nothing deadline-derived).
func jsonBody(data []byte) bodyFunc {
	return func(context.Context) (io.Reader, int64, string, error) {
		return bytes.NewReader(data), int64(len(data)), ContentTypeJSON, nil
	}
}

// permanentError marks a failure that happened before any bytes hit the
// wire (a body that cannot marshal, an unbuildable request): resending
// cannot change it, so the retry loop must not classify it as a
// transient transport fault.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// newRequest builds a request to the daemon carrying what every call
// sends: the bearer token, the request id from ctx (see WithRequestID)
// and the remaining deadline budget in DeadlineHeader.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.token)
	}
	if rid, ok := RequestIDFrom(ctx); ok {
		hreq.Header.Set(RequestIDHeader, rid)
	}
	stampDeadline(hreq, ctx)
	return hreq, nil
}

// attempt runs one HTTP attempt for do's retry loop: build the body and
// the request, send it, decode the response — JSON or a binary result
// frame, keyed by the response's Content-Type — or the structured
// error. It returns the attempt's error together with any Retry-After
// hint accompanying it.
func (c *Client) attempt(ctx context.Context, method, path string, body bodyFunc, acceptFrame bool, out any, attemptTimeout time.Duration) (error, time.Duration) {
	actx := ctx
	if attemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, attemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	var length int64
	var ctype string
	if body != nil {
		var err error
		rd, length, ctype, err = body(actx)
		if err != nil {
			return &permanentError{err}, 0
		}
	}
	hreq, err := c.newRequest(actx, method, path, rd)
	if err != nil {
		return &permanentError{err}, 0
	}
	if rd != nil {
		hreq.ContentLength = length
		hreq.Header.Set("Content-Type", ctype)
	}
	if acceptFrame {
		hreq.Header.Set("Accept", ContentTypeFrame)
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return err, 0
	}
	defer hres.Body.Close()
	var rdBody io.Reader = hres.Body
	if c.maxResponseBytes > 0 {
		rdBody = io.LimitReader(hres.Body, c.maxResponseBytes+1)
	}
	data, err := io.ReadAll(rdBody)
	if err != nil {
		return fmt.Errorf("parselclient: read response: %w", err), 0
	}
	if c.maxResponseBytes > 0 && int64(len(data)) > c.maxResponseBytes {
		// Oversize is a property of the response, not the attempt:
		// resending cannot shrink it.
		return &permanentError{fmt.Errorf("parselclient: response exceeds %d-byte limit", c.maxResponseBytes)}, 0
	}
	if hres.StatusCode != http.StatusOK {
		ra := parseRetryAfter(hres.Header)
		derr := decodeError(hres.StatusCode, data)
		var api *APIError
		if errors.As(derr, &api) {
			api.RetryAfter = ra
		}
		return derr, ra
	}
	if out == nil {
		return nil, 0
	}
	// A prior attempt may have decoded part of a truncated body into out
	// before failing; zero it so stale fields cannot survive a retry.
	if v := reflect.ValueOf(out); v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
	if IsFrameContentType(hres.Header.Get("Content-Type")) {
		return decodeFrameInto(data, out), 0
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("parselclient: decode response: %w", err), 0
	}
	return nil, 0
}

// IsFrameContentType reports whether a Content-Type (or one member of
// an Accept list) names the binary frame encoding, ignoring parameters.
// The client and the daemon both match media types with it.
func IsFrameContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	// Media types are case-insensitive (RFC 9110 §8.3.1): a proxy may
	// legally rewrite the casing, so match with EqualFold.
	return strings.EqualFold(strings.TrimSpace(ct), ContentTypeFrame)
}

// decodeFrameInto decodes a binary result frame into the response
// shapes the query paths expect. The frame convention keeps each
// result's JSON metadata (value, summary, report, error — and an empty
// "values" when the query produced one) in the meta section and moves
// only non-empty values into the binary section, so decoding overlays
// the values back and yields a struct bit-identical to the JSON
// encoding of the same result.
func decodeFrameInto(data []byte, out any) error {
	var err error
	switch v := out.(type) {
	case *ResponseOf[int64]:
		return frameResponse(data, v)
	case *QueryManyResponseOf[int64]:
		v.Results, err = frameResults[int64](data)
	case *ResponseOf[float64]:
		return frameResponse(data, v)
	case *QueryManyResponseOf[float64]:
		v.Results, err = frameResults[float64](data)
	default:
		return fmt.Errorf("parselclient: unexpected binary frame for %T", out)
	}
	return err
}

// frameResults decodes a frame whose values are K keys: each entry's
// metadata, with its values overlaid as decoded.
func frameResults[K snapshot.FixedKey](data []byte) ([]QueryManyResultOf[K], error) {
	entries, err := snapshot.DecodeFrame[K](data)
	if err != nil {
		return nil, fmt.Errorf("parselclient: decode frame: %w", err)
	}
	results := make([]QueryManyResultOf[K], len(entries))
	for i := range entries {
		if err := json.Unmarshal(entries[i].Meta, &results[i]); err != nil {
			return nil, fmt.Errorf("parselclient: decode frame meta %d: %w", i, err)
		}
		if entries[i].Values != nil {
			results[i].Values = entries[i].Values
		}
	}
	return results, nil
}

// frameResponse decodes a single-query frame: exactly one entry.
func frameResponse[K snapshot.FixedKey](data []byte, v *ResponseOf[K]) error {
	results, err := frameResults[K](data)
	if err != nil {
		return err
	}
	if len(results) != 1 {
		return fmt.Errorf("parselclient: frame carries %d results, want 1", len(results))
	}
	*v = results[0].ResponseOf
	return nil
}

// frameUploadBody builds the binary body for an upload: a snapshot
// encoder over the shards, which the transport pulls as it sends, so
// the keys are never materialized as one request buffer and the
// Content-Length is declared up front. Each retry attempt gets a fresh
// encoder, so the streamed body replays byte for byte. Shards the
// format cannot hold fail here, before any byte is sent, so the retry
// loop does not resend them. The encoded header carries the key type,
// which the daemon treats as authoritative for the kind.
func frameUploadBody[K Key](shards [][]K) bodyFunc {
	return func(context.Context) (io.Reader, int64, string, error) {
		rd, err := snapshot.NewReader(snapshot.Header{}, shards)
		if err != nil {
			return nil, 0, "", fmt.Errorf("parselclient: encode: %w", err)
		}
		return rd, rd.Size(), ContentTypeFrame, nil
	}
}

// Upload ships the shards into resident per-processor storage on the
// daemon (PUT), replacing any dataset already under this id. This is
// the only time the keys cross the wire. On a client built
// WithBinary(true) the shards stream as the snapshot binary format,
// every kind alike; otherwise they marshal as JSON.
func (d *RemoteDatasetOf[K]) Upload(ctx context.Context, shards [][]K) (DatasetInfo, error) {
	body := frameUploadBody(shards)
	if !d.c.binary {
		data, err := json.Marshal(DatasetUploadOf[K]{KeyKind: KeyKindField[K](), Shards: shards})
		if err != nil {
			return DatasetInfo{}, fmt.Errorf("parselclient: encode: %w", err)
		}
		body = jsonBody(data)
	}
	var info DatasetInfo
	if err := d.c.do(ctx, http.MethodPut, d.path(""), body, false, &info); err != nil {
		return DatasetInfo{}, err
	}
	return info, nil
}

// Info fetches the dataset's description without touching its TTL.
func (d *RemoteDatasetOf[K]) Info(ctx context.Context) (DatasetInfo, error) {
	var info DatasetInfo
	if err := d.c.doJSON(ctx, http.MethodGet, d.path(""), nil, &info); err != nil {
		return DatasetInfo{}, err
	}
	return info, nil
}

// Delete removes the dataset, freeing its resident-bytes budget
// immediately; queries in flight complete, later ones get
// ErrDatasetNotFound.
func (d *RemoteDatasetOf[K]) Delete(ctx context.Context) (DatasetInfo, error) {
	var info DatasetInfo
	if err := d.c.doJSON(ctx, http.MethodDelete, d.path(""), nil, &info); err != nil {
		return DatasetInfo{}, err
	}
	return info, nil
}

// Run answers one query against the resident dataset (POST
// /v1/datasets/{id}/query), like parsel.Dataset.Run but over the wire.
// Non-int64 handles stamp key_kind so a kind mismatch with the resident
// dataset surfaces as bad_kind instead of mistyped keys.
func (d *RemoteDatasetOf[K]) Run(ctx context.Context, q parsel.Query) (parsel.Answer[K], error) {
	dq := DatasetQueryOf(q)
	dq.KeyKind = KeyKindField[K]()
	return runQuery[K](ctx, d.c, d.path("/query"), q.Op, func(timeoutMS int64) any {
		attempt := dq
		attempt.TimeoutMS = timeoutMS
		return attempt
	})
}

// QueryMany runs a batch of independent queries against the resident
// dataset in one round trip; results align with queries, and per-item
// failures surface per item (see QueryManyResultOf.Err) — one bad query
// never poisons the batch. The whole batch shares one admission
// deadline, recomputed per retry attempt; per-item TimeoutMS must stay
// zero. On a client built WithBinary(true) the results come back as
// one binary frame.
func (d *RemoteDatasetOf[K]) QueryMany(ctx context.Context, queries []DatasetQuery) ([]QueryManyResultOf[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	kind := KeyKindField[K]()
	body := func(actx context.Context) (io.Reader, int64, string, error) {
		qs := queries
		if kind != "" {
			qs = make([]DatasetQuery, len(queries))
			for i, q := range queries {
				q.KeyKind = kind
				qs[i] = q
			}
		}
		return marshalBody(DatasetQueryMany{Queries: qs, TimeoutMS: d.c.timeoutMS(actx)})
	}
	var resp QueryManyResponseOf[K]
	if err := d.c.do(ctx, http.MethodPost, d.path("/querymany"), body, d.c.binary, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(queries) {
		return nil, fmt.Errorf("parselclient: querymany returned %d results for %d queries", len(resp.Results), len(queries))
	}
	return resp.Results, nil
}

// Err converts the item's error detail, if any, into the same *APIError
// a single query returning this code would produce — so errors.Is
// against the library's typed errors (parsel.ErrRankRange,
// parsel.ErrPoolTimeout, ...) works identically for batch items.
func (r *QueryManyResultOf[K]) Err() error {
	if r.Error == nil {
		return nil
	}
	return &APIError{Status: statusForCode(r.Error.Code), Code: r.Error.Code, Message: r.Error.Message}
}

// statusForCode maps a wire error code to the HTTP status a direct
// query failing with it would carry — the inverse of the daemon's
// status mapping, for errors that arrive inside a 200 batch response.
func statusForCode(code Code) int {
	switch code {
	case CodeDatasetNotFound, CodeNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeTooLarge, CodeResidentBudget:
		return http.StatusRequestEntityTooLarge
	case CodeQueueFull, CodePoolTimeout:
		return http.StatusTooManyRequests
	case CodeShuttingDown:
		return http.StatusServiceUnavailable
	case CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Stats fetches the daemon's observability snapshot. Like every other
// read, it retries under the client's RetryPolicy.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	if err := c.doJSON(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// ReloadTenants asks the daemon to reread its tenant configuration
// (POST /v1/admin/tenants/reload) — token rotation and budget changes
// without a restart. The endpoint exists only on a daemon started with
// a tenant source (parseld -tenants); elsewhere it answers not_found.
func (c *Client) ReloadTenants(ctx context.Context) (TenantReloadResult, error) {
	var res TenantReloadResult
	if err := c.doJSON(ctx, http.MethodPost, "/v1/admin/tenants/reload", nil, &res); err != nil {
		return TenantReloadResult{}, err
	}
	return res, nil
}

// maxSideBody bounds the bodies read outside the retry loop — health
// verdicts and snapshot-export errors — which MaxResponseBytes does
// not cover.
const maxSideBody = 1 << 20

// Healthz probes /healthz and reports the daemon's health state —
// HealthOK, HealthDegraded (serving, but e.g. snapshot persistence is
// failing) or HealthDraining. The probe never retries: a health check
// wants the instantaneous answer. The error is non-nil only when no
// recognizable health verdict came back at all.
func (c *Client) Healthz(ctx context.Context) (HealthStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hreq, err := c.newRequest(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return HealthStatus{}, err
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return HealthStatus{}, err
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, maxSideBody))
	if err != nil {
		return HealthStatus{}, fmt.Errorf("parselclient: read healthz: %w", err)
	}
	switch hres.StatusCode {
	case http.StatusOK, http.StatusMultiStatus:
		var hs HealthStatus
		if jerr := json.Unmarshal(data, &hs); jerr != nil || hs.Status == "" {
			return HealthStatus{}, fmt.Errorf("parselclient: healthz body %q is not a health state", data)
		}
		return hs, nil
	default:
		derr := decodeError(hres.StatusCode, data)
		var api *APIError
		if errors.As(derr, &api) && api.Code == CodeShuttingDown {
			return HealthStatus{Status: HealthDraining, Reason: api.Message}, nil
		}
		return HealthStatus{}, derr
	}
}

// DatasetSnapshot opens the binary snapshot stream of a resident
// dataset (GET /v1/datasets/{id}/snapshot): the same
// PSELSNAP frame an upload or a disk snapshot carries, CRC-guarded,
// exported without materializing the keys server-side. The caller owns
// the returned body and must Close it. The declared length is the
// exact encoded size (the server computes it up front). The probe is
// a single attempt — the shipping paths built on it (ShipSnapshot)
// retry whole transfers instead, so a half-read stream is never
// resumed mid-frame.
func (c *Client) DatasetSnapshot(ctx context.Context, id string) (io.ReadCloser, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	path := "/v1/datasets/" + url.PathEscape(id) + "/snapshot"
	// A ship's correlation id rides the export stream too, so both
	// halves of a snapshot transfer log under one id.
	hreq, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, err
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	if hres.StatusCode != http.StatusOK {
		defer hres.Body.Close()
		data, rerr := io.ReadAll(io.LimitReader(hres.Body, maxSideBody))
		if rerr != nil {
			return nil, 0, fmt.Errorf("parselclient: read snapshot error: %w", rerr)
		}
		return nil, 0, decodeError(hres.StatusCode, data)
	}
	if !IsFrameContentType(hres.Header.Get("Content-Type")) {
		hres.Body.Close()
		return nil, 0, fmt.Errorf("parselclient: snapshot response is %q, not a frame",
			hres.Header.Get("Content-Type"))
	}
	return hres.Body, hres.ContentLength, nil
}

// ShipSourceError wraps a ShipSnapshot failure that originated on the
// source daemon's snapshot export rather than the destination's
// ingest. errors.As lets a caller attribute the fault to the right
// node — Err is the raw source-side cause, still classifiable with
// Retryable — before deciding which end to fail over or mark down.
type ShipSourceError struct{ Err error }

func (e *ShipSourceError) Error() string {
	return "parselclient: snapshot source: " + e.Err.Error()
}

func (e *ShipSourceError) Unwrap() error { return e.Err }

// ShipSnapshot replicates a resident fixed-width dataset from this
// daemon to another: the source's snapshot stream becomes the
// destination's frame upload, flowing end to end without the keys ever
// materializing in the shipping process — zero-copy on both daemons
// (Dataset.View on export, RestoreDataset on ingest). Each retry
// attempt reopens the source stream, so a torn transfer replays whole;
// CRCs on every section mean a corrupt hop is refused (bad_frame), not
// absorbed. The destination ends up with a bit-identical replica under
// the same id. Retries follow dst's RetryPolicy.
func (c *Client) ShipSnapshot(ctx context.Context, id string, dst *Client) (DatasetInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := RequestIDFrom(ctx); !ok {
		// One id for the whole transfer: the export stream and the ingest
		// upload log under it on both daemons.
		ctx = WithRequestID(ctx, NewRequestID())
	}
	body := func(actx context.Context) (io.Reader, int64, string, error) {
		rc, length, err := c.DatasetSnapshot(actx, id)
		if err != nil {
			// A source failure is not the destination's transient fault:
			// it surfaces immediately (the retry loop treats body-build
			// errors as permanent), wrapped in ShipSourceError so callers
			// can blame the right node. Callers wanting source-side
			// failover retry the whole ship against another holder.
			return nil, 0, "", &ShipSourceError{Err: err}
		}
		return rc, length, ContentTypeFrame, nil
	}
	var info DatasetInfo
	path := "/v1/datasets/" + url.PathEscape(id)
	if err := dst.do(ctx, http.MethodPut, path, body, false, &info); err != nil {
		return DatasetInfo{}, err
	}
	return info, nil
}

// Health probes /healthz; nil means the daemon is accepting queries
// (healthy or degraded — a degraded daemon still serves). Use Healthz
// for the three-state verdict.
func (c *Client) Health(ctx context.Context) error {
	hs, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	if hs.Status == HealthDraining {
		return &APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    CodeShuttingDown,
			Message: "daemon is draining",
		}
	}
	return nil
}
