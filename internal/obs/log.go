package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewRequestID draws a fresh 64-bit random request id, hex-encoded —
// the value of an X-Parsel-Request-Id header when the caller did not
// supply one.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform's entropy source is
		// gone; tracing ids are not worth dying over.
		return "00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}

// NewLogger builds a slog.Logger writing to w in the given format
// ("text" or "json") at the given level ("debug", "info", "warn",
// "error") — the -log-format/-log-level surface of cmd/parseld.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}
