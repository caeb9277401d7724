package parselclient

import (
	"net/http"
	"testing"
	"time"
)

// TestParseRetryAfter pins both RFC 9110 Retry-After forms. The daemon
// emits delta-seconds; HTTP-dates arrive from proxies and CDNs in
// front of it — before the fix those parsed as zero and the retry loop
// hammered the origin with no pause.
func TestParseRetryAfter(t *testing.T) {
	hdr := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}

	// Exact verdicts: delta-seconds, clamps, garbage, absence.
	exact := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"absent", "", 0},
		{"delta", "2", 2 * time.Second},
		{"delta zero", "0", 0},
		{"delta negative", "-5", 0},
		{"garbage", "soon", 0},
		{"fractional", "1.5", 0},
	}
	for _, tc := range exact {
		if got := parseRetryAfter(hdr(tc.v)); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.v, got, tc.want)
		}
	}

	// A future HTTP-date yields roughly the interval until it. The
	// result races the wall clock, so assert a window.
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(hdr(future)); got < 80*time.Second || got > 91*time.Second {
		t.Errorf("future date: parseRetryAfter(%q) = %v, want ~90s", future, got)
	}
	// All three mandatory HTTP-date formats must parse (http.ParseTime
	// handles RFC 850 and ANSI C asctime too).
	asctime := time.Now().Add(60 * time.Second).UTC().Format(time.ANSIC)
	if got := parseRetryAfter(hdr(asctime)); got < 50*time.Second || got > 61*time.Second {
		t.Errorf("asctime date: parseRetryAfter(%q) = %v, want ~60s", asctime, got)
	}
	// A date in the past clamps to zero rather than going negative.
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(hdr(past)); got != 0 {
		t.Errorf("past date: parseRetryAfter(%q) = %v, want 0", past, got)
	}
}

// TestIsFrameContentType pins case-insensitive media-type matching
// (RFC 9110 §8.3.1) with and without parameters — a proxy may legally
// rewrite the casing, and before the fix any non-lowercase form made
// the client misread a binary frame as JSON.
func TestIsFrameContentType(t *testing.T) {
	cases := []struct {
		ct   string
		want bool
	}{
		{ContentTypeFrame, true},
		{"Application/X-Parsel-Frame", true},
		{"APPLICATION/X-PARSEL-FRAME", true},
		{"application/x-parsel-frame; v=1", true},
		{"Application/X-Parsel-Frame;charset=binary", true},
		{"  application/x-parsel-frame", true},
		{"application/json", false},
		{"application/x-parsel-frame2", false},
		{"", false},
	}
	for _, tc := range cases {
		if got := IsFrameContentType(tc.ct); got != tc.want {
			t.Errorf("IsFrameContentType(%q) = %v, want %v", tc.ct, got, tc.want)
		}
	}
}
