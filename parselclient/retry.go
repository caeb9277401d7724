package parselclient

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Retry semantics: the self-healing half of the client.
//
// A Client with a RetryPolicy transparently retries transient failures
// — connection resets, truncated or corrupted response bodies, 429
// admission rejections (honoring the server's Retry-After hint), 5xx
// faults — with capped exponential backoff and full jitter, under two
// deadline budgets (per-attempt and overall) and a token-bucket retry
// budget that keeps a retrying client fleet from amplifying an outage
// into a retry storm.
//
// Retrying is safe across the whole wire surface because every
// operation is idempotent: queries (shard-carrying and dataset) are
// pure reads, GET/DELETE are idempotent by construction, and a dataset
// PUT replayed after an ambiguous outcome (e.g. a truncated 200)
// simply replaces the dataset with identical contents under a fresh
// upload generation — the daemon's generation semantics make the
// replay indistinguishable from a deliberate re-upload.
//
// What retries and what does not (see the README's Resilience table):
//
//   - transport errors (reset, refused, EOF, unreadable/corrupt body):
//     retried — the bytes never formed a trustworthy response;
//   - 429 queue_full / pool_timeout: retried, Retry-After honored;
//   - 503 shutting_down and other 5xx (incl. 500 internal): retried —
//     transient by contract (a draining daemon's replacement, a
//     recovered panic);
//   - every 4xx validation failure, 404 dataset_not_found, 413
//     too_large / resident_budget: NOT retried — resending the same
//     request cannot change the verdict;
//   - context cancellation or the caller's deadline expiring: never
//     retried (an attempt exceeding only its per-attempt budget is).

// DeadlineHeader is the end-to-end deadline propagation header: the
// client stamps its remaining deadline budget, in milliseconds, on
// every attempt, and the daemon caps its admission wait at that budget
// — a query whose caller has given up never occupies a machine.
const DeadlineHeader = "X-Parsel-Deadline"

// RetryPolicy configures a Client's self-healing behavior. The zero
// value disables retries (single attempt, exactly the pre-policy
// client); set MaxAttempts > 1 to enable them.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per operation, the first
	// included. 0 or 1 means no retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: before retry n the
	// client sleeps a uniformly jittered duration in
	// [0, min(MaxDelay, BaseDelay*2^(n-1))] — "full jitter", so a
	// synchronized client fleet desynchronizes instead of thundering
	// back together. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep. Default 2s.
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt; an attempt
	// exceeding it is abandoned and retried (the overall context
	// permitting), so one black-holed connection cannot eat the whole
	// deadline budget. 0 means attempts are bounded only by the
	// caller's context.
	AttemptTimeout time.Duration
	// MaxElapsed bounds the whole operation, attempts and sleeps
	// included, in addition to the caller's context. 0 means the
	// context alone bounds it.
	MaxElapsed time.Duration
	// BudgetRatio is the token-bucket retry budget: every fresh
	// operation deposits BudgetRatio tokens (the bucket starts full at
	// BudgetBurst and is capped there), and every retry withdraws one —
	// so in steady state retries are at most BudgetRatio of traffic,
	// and a hard outage drains the bucket instead of multiplying load.
	// 0 means the default 0.1; a negative ratio disables the budget
	// (unlimited retries, for controlled chaos harnesses).
	BudgetRatio float64
	// BudgetBurst is the bucket capacity (default 16): how many retries
	// a quiet client can spend on a sudden fault burst.
	BudgetBurst float64
	// Seed seeds the jitter stream; 0 draws a random seed. Fixed seeds
	// make retry schedules reproducible in tests.
	Seed uint64
	// Sleep replaces the real backoff sleep — fake-clock mode for
	// tests. Nil sleeps on a timer, honoring ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// withDefaults fills the zero-valued knobs.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.BudgetRatio == 0 {
		p.BudgetRatio = 0.1
	}
	if p.BudgetBurst == 0 {
		p.BudgetBurst = 16
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// sleepCtx is the default backoff sleep: a timer raced against the
// context.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryStats counts a Client's retry behavior — the per-client
// observability of the resilience layer. Snapshot via
// Client.RetryStats.
type RetryStats struct {
	// Requests counts logical operations started (each may span several
	// attempts).
	Requests int64
	// Attempts counts HTTP attempts issued.
	Attempts int64
	// Retries counts attempts beyond each operation's first.
	Retries int64
	// RetryAfterHonored counts backoffs stretched to a server
	// Retry-After hint.
	RetryAfterHonored int64
	// BudgetExhausted counts retries refused by the token-bucket budget
	// (the error surfaces to the caller instead).
	BudgetExhausted int64
	// GaveUp counts operations that surfaced a retryable error anyway:
	// attempts exhausted, or no deadline budget left to back off in.
	GaveUp int64
}

// retryCounters is the atomic backing store of RetryStats.
type retryCounters struct {
	requests, attempts, retries, retryAfterHonored, budgetExhausted, gaveUp atomic.Int64
}

// snapshot samples the counters.
func (rc *retryCounters) snapshot() RetryStats {
	return RetryStats{
		Requests:          rc.requests.Load(),
		Attempts:          rc.attempts.Load(),
		Retries:           rc.retries.Load(),
		RetryAfterHonored: rc.retryAfterHonored.Load(),
		BudgetExhausted:   rc.budgetExhausted.Load(),
		GaveUp:            rc.gaveUp.Load(),
	}
}

// RetryStats snapshots the client's retry counters.
func (c *Client) RetryStats() RetryStats { return c.retryCount.snapshot() }

// Retryable classifies an error of any client method: true if a retry
// of the same request could plausibly succeed (transient transport or
// server faults, admission rejections), false if the verdict is
// deterministic (validation failures, not-found, budget refusals) or
// the caller's own context ended the operation. A Client with a
// RetryPolicy applies exactly this classification internally; it is
// exported so callers layering their own retry logic agree with it.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		// The failure happened before any bytes hit the wire (a body that
		// cannot marshal); resending cannot change it.
		return false
	}
	var api *APIError
	if errors.As(err, &api) {
		switch api.Code {
		case CodeQueueFull, CodePoolTimeout, CodeShuttingDown:
			return true
		case CodeInternal:
			// Our own daemon's 500s (recovered panics) and any non-JSON
			// intermediary verdict in the retryable status classes.
			return api.Status == http.StatusTooManyRequests ||
				(api.Status >= 500 && api.Status != http.StatusNotImplemented)
		}
		return false
	}
	// No structured response at all: the connection reset, the body
	// was truncated or corrupted, the dial failed. The request may or
	// may not have been processed, and every operation on this wire is
	// idempotent, so retrying is safe.
	return true
}

// budgetDeposit credits the token bucket for one fresh operation.
func (c *Client) budgetDeposit(p RetryPolicy) {
	if p.BudgetRatio < 0 {
		return
	}
	c.retryMu.Lock()
	if !c.budgetInit {
		c.budget = p.BudgetBurst // a fresh client starts with a full bucket
		c.budgetInit = true
	}
	c.budget = min(p.BudgetBurst, c.budget+p.BudgetRatio)
	c.retryMu.Unlock()
}

// budgetWithdraw spends one retry token, or reports the bucket empty.
func (c *Client) budgetWithdraw(p RetryPolicy) bool {
	if p.BudgetRatio < 0 {
		return true
	}
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	if c.budget < 1 {
		return false
	}
	c.budget--
	return true
}

// jitter draws a uniformly jittered backoff in [0, cap] from the
// client's seeded stream.
func (c *Client) jitter(capd time.Duration, p RetryPolicy) time.Duration {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	if c.rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = rand.Uint64()
		}
		c.rng = rand.New(rand.NewPCG(seed, 0x726574727970636c)) // "retrypcl"
	}
	if capd <= 0 {
		return 0
	}
	return time.Duration(c.rng.Int64N(int64(capd) + 1))
}

// backoffCap is the un-jittered backoff ceiling before retry number
// retry (1-based): min(MaxDelay, BaseDelay*2^(retry-1)).
func backoffCap(p RetryPolicy, retry int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	return min(d, p.MaxDelay)
}

// stampDeadline writes the remaining deadline budget of ctx into the
// propagation header, rounded up so a sub-millisecond remainder still
// reads as a deadline rather than "none".
func stampDeadline(hreq *http.Request, ctx context.Context) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	rem := time.Until(dl)
	if rem <= 0 {
		rem = time.Millisecond
	}
	ms := int64((rem + time.Millisecond - 1) / time.Millisecond)
	hreq.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

// parseRetryAfter reads a Retry-After hint in either RFC 9110 form:
// delta-seconds (what the daemon emits) or an HTTP-date (what proxies
// and CDNs in front of it emit). A date in the past clamps to zero, as
// does anything unparsable or absent.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 32); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		return max(time.Until(at), 0)
	}
	return 0
}

// doJSON runs one logical operation whose body (if any) is static
// pre-marshaled JSON — the common case for GET/DELETE and
// info/stats-style requests.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	var bf bodyFunc
	if body != nil {
		bf = jsonBody(body)
	}
	return c.do(ctx, method, path, bf, false, out)
}

// do runs one logical operation: attempt, classify, back off, retry —
// the retry loop every client method funnels through. The body is
// rebuilt by bodyFunc for every attempt (fresh stream, fresh
// deadline-derived fields); acceptFrame asks the server for a binary
// result frame. With a zero policy it is a single attempt,
// byte-for-byte the pre-policy client. do also resolves the
// operation's request id (the caller's via WithRequestID, or a fresh
// one) — every attempt, retries included, carries the same id — and
// reports the finished operation's RetryStats delta to the collector,
// if one is listening.
func (c *Client) do(ctx context.Context, method, path string, body bodyFunc, acceptFrame bool, out any) error {
	delta := c.opDelta()
	err := c.doRetries(ctx, method, path, body, acceptFrame, out, delta)
	c.emitOp(method, path, delta, err)
	return err
}

// doRetries is do's retry loop, incrementing the per-operation delta
// (nil when no collector is listening) alongside the cumulative
// counters.
func (c *Client) doRetries(ctx context.Context, method, path string, body bodyFunc, acceptFrame bool, out any, delta *RetryStats) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := RequestIDFrom(ctx); !ok {
		ctx = WithRequestID(ctx, NewRequestID())
	}
	p := c.retry.withDefaults()
	c.retryCount.requests.Add(1)
	if delta != nil {
		delta.Requests++
	}
	if p.enabled() {
		c.budgetDeposit(p)
		if p.MaxElapsed > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, p.MaxElapsed)
			defer cancel()
		}
	}
	for attempt := 1; ; attempt++ {
		c.retryCount.attempts.Add(1)
		if delta != nil {
			delta.Attempts++
		}
		err, retryAfter := c.attempt(ctx, method, path, body, acceptFrame, out, p.AttemptTimeout)
		if err == nil {
			return nil
		}
		retryable := Retryable(err)
		if !retryable && p.AttemptTimeout > 0 && ctx.Err() == nil &&
			errors.Is(err, context.DeadlineExceeded) {
			// The attempt's own budget expired, not the caller's: the
			// operation still has time, so the attempt is retryable.
			retryable = true
		}
		if !p.enabled() || !retryable || ctx.Err() != nil {
			return err
		}
		if attempt >= p.MaxAttempts {
			c.retryCount.gaveUp.Add(1)
			if delta != nil {
				delta.GaveUp++
			}
			return err
		}
		if !c.budgetWithdraw(p) {
			c.retryCount.budgetExhausted.Add(1)
			if delta != nil {
				delta.BudgetExhausted++
			}
			return err
		}
		delay := c.jitter(backoffCap(p, attempt), p)
		if retryAfter > delay {
			delay = retryAfter
			c.retryCount.retryAfterHonored.Add(1)
			if delta != nil {
				delta.RetryAfterHonored++
			}
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
			// No budget left to back off in; surface the last error now
			// rather than sleeping into a guaranteed deadline failure.
			c.retryCount.gaveUp.Add(1)
			if delta != nil {
				delta.GaveUp++
			}
			return err
		}
		if serr := p.Sleep(ctx, delay); serr != nil {
			return err
		}
		c.retryCount.retries.Add(1)
		if delta != nil {
			delta.Retries++
		}
	}
}
