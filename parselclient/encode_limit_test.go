//go:build linux

package parselclient

import (
	"context"
	"net/http/httptest"
	"syscall"
	"testing"
	"unsafe"
)

// TestUploadUnencodableIsPermanent pins that a binary upload of shards
// the snapshot format cannot hold — a string key of 4 GiB or more —
// fails before a byte is sent, as a permanent error: one attempt, no
// request at the daemon, nothing retried.
func TestUploadUnencodableIsPermanent(t *testing.T) {
	// The key's bytes are an anonymous mapping that is never touched,
	// so no memory backs it: the encoder reads only its length.
	const size = 1<<32 + 1
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot map %d bytes of address space: %v", size, err)
	}
	defer syscall.Munmap(mem)
	huge := unsafe.String(&mem[0], len(mem))

	h := &failNTimes{body: `{"id":"d"}`}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithBinary(true),
		WithRetry(RetryPolicy{MaxAttempts: 3, Sleep: noSleep}))
	_, err = Keyed[string](c).Dataset("d").Upload(context.Background(), [][]string{{"a"}, {huge}})
	if err == nil || Retryable(err) {
		t.Fatalf("upload of a 4 GiB key: %v, want a permanent error", err)
	}
	if got := h.calls.Load(); got != 0 {
		t.Errorf("%d requests reached the daemon, want none", got)
	}
	if st := c.RetryStats(); st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("retry stats %+v, want one attempt and no retries", st)
	}
}
