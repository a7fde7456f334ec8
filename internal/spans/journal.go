package spans

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// JournalVersion is the span-journal format version. Bump it when
// the header or record shape changes incompatibly; ReadJournal
// rejects versions it does not know.
const JournalVersion = 1

// Header is the first line of a span journal.
type Header struct {
	V     int    `json:"v"`
	Epoch string `json:"epoch"` // wall-clock time of StartUS==0, RFC3339Nano
}

// syncer is the subset of *os.File the journal needs for crash
// safety; buffers used in tests simply don't implement it.
type syncer interface{ Sync() error }

// journalWriter appends one JSON line per finished span. Writes
// happen under the tracer's lock, so it needs no lock of its own.
type journalWriter struct {
	w    io.Writer
	sync syncer
	c    io.Closer
	err  error // first write error; later appends become no-ops
}

func (j *journalWriter) append(d SpanData, root bool) {
	if j.err != nil {
		return
	}
	b, err := json.Marshal(d)
	if err != nil {
		j.err = err
		return
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	// Root spans close out a whole run: force them to stable storage
	// so a crash loses at most the run in flight.
	if root && j.sync != nil {
		if err := j.sync.Sync(); err != nil {
			j.err = err
		}
	}
}

// OpenJournal creates (truncating) a JSON-lines span journal at path
// and writes its header. Finished spans are appended as they end;
// root-span appends are fsynced.
func (t *Tracer) OpenJournal(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("spans: open journal: %w", err)
	}
	if err := t.SetJournal(f); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	t.journal.sync = f
	t.journal.c = f
	t.mu.Unlock()
	return nil
}

// SetJournal directs the journal to an arbitrary writer (tests use a
// buffer) and writes the header. If w implements Sync, root-span
// appends are synced.
func (t *Tracer) SetJournal(w io.Writer) error {
	if t == nil {
		return nil
	}
	h, err := json.Marshal(Header{V: JournalVersion, Epoch: t.epoch.UTC().Format(time.RFC3339Nano)})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(h, '\n')); err != nil {
		return fmt.Errorf("spans: journal header: %w", err)
	}
	j := &journalWriter{w: w}
	if s, ok := w.(syncer); ok {
		j.sync = s
	}
	t.mu.Lock()
	t.journal = j
	t.mu.Unlock()
	return nil
}

// CloseJournal flushes and closes the journal, returning the first
// error the writer hit (a disk-full mid-sweep surfaces here rather
// than being silently swallowed). Safe on a nil or journal-less
// tracer.
func (t *Tracer) CloseJournal() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	j := t.journal
	t.journal = nil
	t.mu.Unlock()
	if j == nil {
		return nil
	}
	err := j.err
	if j.sync != nil {
		if serr := j.sync.Sync(); err == nil {
			err = serr
		}
	}
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WriteJournalTo writes a one-shot span journal to w — the same
// versioned header + JSON-lines format the streamed journal uses —
// containing the finished spans that carry the given cross-process
// trace id (every finished span when w3cTraceID is empty). It is the
// renderer behind GET /v1/jobs/{id}/spans: a remote client reads the
// result back with ReadJournal exactly as it would a local journal
// file. Safe on a nil tracer (writes nothing, returns nil).
func (t *Tracer) WriteJournalTo(w io.Writer, w3cTraceID string) error {
	if t == nil {
		return nil
	}
	h, err := json.Marshal(Header{V: JournalVersion, Epoch: t.epoch.UTC().Format(time.RFC3339Nano)})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(h, '\n')); err != nil {
		return err
	}
	spans := t.Spans()
	if w3cTraceID != "" {
		spans = t.SpansForTrace(w3cTraceID)
	}
	for _, d := range spans {
		b, err := json.Marshal(d)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadJournal decodes a span journal. It is torn-tail tolerant: a
// final line that is incomplete (no newline) or fails to decode —
// the crash case the fsync discipline is designed around — is
// dropped without error. A bad header or unknown version is an
// error; the journal is useless without it.
func ReadJournal(r io.Reader) (Header, []SpanData, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil && !errors.Is(err, io.EOF) {
		return Header{}, nil, fmt.Errorf("spans: read journal header: %w", err)
	}
	var h Header
	if uerr := json.Unmarshal([]byte(line), &h); uerr != nil {
		return Header{}, nil, fmt.Errorf("spans: bad journal header: %w", uerr)
	}
	if h.V != JournalVersion {
		return Header{}, nil, fmt.Errorf("spans: journal version %d (want %d)", h.V, JournalVersion)
	}
	var spans []SpanData
	for {
		line, err := br.ReadString('\n')
		if len(line) == 0 && err != nil {
			break
		}
		torn := err != nil // no trailing newline: possibly cut mid-record
		var d SpanData
		if uerr := json.Unmarshal([]byte(line), &d); uerr != nil {
			if torn || isLastLine(br) {
				break // torn tail: keep everything before it
			}
			return h, nil, fmt.Errorf("spans: bad journal record: %w", uerr)
		}
		spans = append(spans, d)
		if err != nil {
			break
		}
	}
	return h, spans, nil
}

// isLastLine reports whether the reader is exhausted, i.e. the line
// just read was the journal's final one.
func isLastLine(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return err != nil
}
