package telemetry

// The JSONL run report: one JSON object per line, each with a wall-clock
// "ts" and an "event" tag (see Emit). Hot search loops never emit events —
// only iteration-scale occurrences (archive accepts, restarts, decisions,
// periodic front-quality snapshots) and run boundaries do — so the writer
// favors simplicity over throughput: a mutex around a buffered encoder.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
)

// Writer appends JSONL records to an underlying stream.
type Writer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	closer io.Closer
	err    error
}

// NewWriter wraps w in a JSONL writer. If w is also an io.Closer, Close
// closes it.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	out := &Writer{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		out.closer = c
	}
	return out
}

// OpenWriter creates (truncating) the JSONL report file at path.
func OpenWriter(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: creating report %s: %w", path, err)
	}
	return NewWriter(f), nil
}

// Emit appends one record, any JSON-encodable value. The first write
// error sticks and suppresses further writes; Close reports it.
func (w *Writer) Emit(record any) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(record)
}

// Close flushes and closes the underlying stream, returning the first
// error seen on any write.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); w.err == nil {
		w.err = err
	}
	if w.closer != nil {
		if err := w.closer.Close(); w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// Close flushes the JSONL sink, if any.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	return t.writer.Close()
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger returns a text slog.Logger at the given level writing to w.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
