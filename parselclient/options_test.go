package parselclient

import (
	"net/http"
	"testing"
	"time"
)

// TestNewFunctionalOptions pins the constructor: every option lands on
// its field.
func TestNewFunctionalOptions(t *testing.T) {
	hc := &http.Client{}
	c := New("http://example:7075/",
		WithHTTPClient(hc),
		WithToken("tok-acme"),
		WithBinary(true),
		WithRetry(RetryPolicy{MaxAttempts: 4}),
		WithLimits(ClientLimits{QueryTimeout: 2 * time.Second, MaxResponseBytes: 1 << 20}),
	)
	if c.base != "http://example:7075" {
		t.Errorf("base = %q, want trailing slash trimmed", c.base)
	}
	if c.hc != hc {
		t.Error("WithHTTPClient did not land")
	}
	if c.token != "tok-acme" || !c.binary || c.retry.MaxAttempts != 4 {
		t.Errorf("options did not land: token=%q binary=%v retry=%+v", c.token, c.binary, c.retry)
	}
	if c.queryTimeout != 2*time.Second || c.maxResponseBytes != 1<<20 {
		t.Errorf("limits did not land: %v, %d", c.queryTimeout, c.maxResponseBytes)
	}

	// WithHTTPClient(nil) keeps the default rather than breaking every
	// request.
	d := New("http://x", WithHTTPClient(nil))
	if d.hc != http.DefaultClient {
		t.Error("WithHTTPClient(nil) replaced the default client")
	}
}
