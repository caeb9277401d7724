package parselclient

import (
	"context"
	"strings"

	"parsel/internal/obs"
)

// RequestIDHeader carries the request id that ties a client call to
// the server's structured logs: the client stamps it on every attempt
// of an operation (the same id across retries, and — through the
// cluster router — across failover attempts), and the daemon echoes it
// on the response and attaches it to every log line the request emits.
const RequestIDHeader = "X-Parsel-Request-Id"

// requestIDKey carries a caller-chosen request id through a context.
type requestIDKey struct{}

// WithRequestID returns a context whose client operations are traced
// under the given id instead of a freshly generated one — how a caller
// threads its own correlation id end to end. The id travels verbatim
// in RequestIDHeader; keep it header-safe (printable ASCII, no
// newlines).
func WithRequestID(ctx context.Context, id string) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request id installed by WithRequestID.
func RequestIDFrom(ctx context.Context) (string, bool) {
	if ctx == nil {
		return "", false
	}
	id, ok := ctx.Value(requestIDKey{}).(string)
	return id, ok && id != ""
}

// NewRequestID draws a fresh random request id — the value the client
// stamps when the caller did not supply one via WithRequestID.
func NewRequestID() string { return obs.NewRequestID() }

// Collector receives per-operation telemetry from a Client — the hook
// that lands client-side retry behavior (and, via cluster.Config, the
// router's failover/ship/shortfall events) in one scrapeable place,
// typically an obs.Registry owned by the embedding process.
//
// Implementations must be safe for concurrent use. A nil collector
// (the zero value) costs nothing: the client takes a nil-check branch
// and allocates no delta, which TestCollectorNilAllocs pins.
type Collector interface {
	// ClientOp reports one finished logical operation: op is the
	// normalized operation label ("GET /v1/stats",
	// "POST /v1/datasets/{id}/query" — dataset ids are collapsed so the
	// label space stays bounded), delta is the retry activity this one
	// operation added to the client's cumulative RetryStats, and err is
	// the operation's outcome. Router-level events arrive with op
	// "cluster.failover", "cluster.ship" or "cluster.shortfall" and a
	// zero delta.
	ClientOp(op string, delta RetryStats, err error)
}

// WithCollector sets the telemetry hook (see Collector).
func WithCollector(col Collector) Option {
	return func(c *Client) { c.collector = col }
}

// opDelta allocates the per-operation RetryStats delta, or returns nil
// when no collector is listening — the fast path is one nil check.
func (c *Client) opDelta() *RetryStats {
	if c.collector == nil {
		return nil
	}
	return &RetryStats{}
}

// emitOp hands one finished operation to the collector. A nil delta
// (no collector at opDelta time) is a no-op.
func (c *Client) emitOp(method, path string, delta *RetryStats, err error) {
	if delta == nil || c.collector == nil {
		return
	}
	c.collector.ClientOp(opLabel(method, path), *delta, err)
}

// opLabel normalizes a method+path pair into a bounded label:
// per-dataset path segments collapse to {id} so one label covers every
// dataset.
func opLabel(method, path string) string {
	const pfx = "/v1/datasets/"
	if rest, ok := strings.CutPrefix(path, pfx); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			path = pfx + "{id}" + rest[i:]
		} else {
			path = pfx + "{id}"
		}
	}
	return method + " " + path
}
