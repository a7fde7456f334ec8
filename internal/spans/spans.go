// Package spans is a lightweight span tracer for the sweep harness:
// one trace per RunSpec (plus one for the sweep itself), parent/child
// spans for each phase (program build, checkpoint, fast-forward,
// simulate, render), string attributes, and monotonic
// timestamps measured from a single per-tracer epoch.
//
// Like pipetrace.Recorder, a nil *Tracer is the disabled tracer: every
// method on a nil Tracer (and on the nil *Span they return) is a safe
// no-op that allocates nothing, so call sites can stay unconditional
// on the hot path. Attribute values that must be formatted (strconv,
// fmt) should still be guarded by Enabled() so the formatting itself
// is skipped when tracing is off.
//
// Finished spans are exported three ways: a crash-safe JSON-lines
// journal written as spans end, every span of them (see journal.go); a
// Chrome/Perfetto trace JSON of the sweep with attached pipetrace micro
// timelines nested under their run's macro span (see perfetto.go); and
// a live view (Open/Recent) served by the obs server at /debug/spans.
// In memory a Tracer keeps only a bounded tail of finished spans
// (spanKept), so a long-lived daemon tracing with -spans stays flat:
// the journal is the complete record, the memory a window onto it.
package spans

import (
	"sort"
	"sync"
	"time"

	"hbat/internal/pipetrace"
)

// TraceID identifies one trace: all spans of one run (or one sweep)
// share a TraceID. IDs are sequential per Tracer, starting at 1.
type TraceID uint64

// SpanData is one finished span, exactly as journaled. Attrs is a
// plain string map; encoding/json sorts map keys, so a SpanData
// marshals to deterministic bytes.
//
// The three W3C-style fields are only populated on traces bound to a
// cross-process TraceContext (NewTraceWith): every span of such a
// trace carries the shared hex TraceW3C, and the trace's root span
// additionally carries its own wire identity (SpanW3C) and the remote
// span it is parented under (RemoteParent) — the linkage a merged
// multi-process timeline is reassembled from.
type SpanData struct {
	Trace   TraceID           `json:"trace"`
	Span    uint64            `json:"span"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`

	// TraceW3C is the 32-hex cross-process trace id shared by every
	// participating process's spans.
	TraceW3C string `json:"trace_id,omitempty"`
	// SpanW3C is this span's own 16-hex wire identity (root spans of
	// bound traces only) — what a downstream process's RemoteParent
	// points at.
	SpanW3C string `json:"span_id,omitempty"`
	// RemoteParent is the 16-hex span id (usually in another process)
	// this root span is parented under.
	RemoteParent string `json:"parent_span_id,omitempty"`
}

// OpenSpan is a still-running span as reported by Open: its identity
// plus its age at the time of the snapshot.
type OpenSpan struct {
	Trace   TraceID           `json:"trace"`
	Span    uint64            `json:"span"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	AgeUS   int64             `json:"age_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Span is an in-flight span. Spans are created by Tracer.Start and
// finished exactly once by End; SetAttr may be called between the
// two. A nil Span (from a nil Tracer) accepts every call as a no-op.
type Span struct {
	t    *Tracer
	data SpanData
}

// A Tracer keeps a bounded history, constants not options: the last
// spanKept finished spans, for Spans, SpansForTrace and the Perfetto
// export (a whole test-scale hbat-experiments report ends 2,514 spans,
// or 3,714 with -ffwd 1000), of which Recent serves the last
// recentKept. The journal, when one is attached, receives every span.
const (
	spanKept   = 1 << 14
	recentKept = 256
)

// microTrack is one pipetrace recorder attached to a finished macro
// span; it becomes its own Perfetto process offset to the span start.
type microTrack struct {
	label   string
	trace   TraceID
	startUS int64
	rec     *pipetrace.Recorder
}

// Tracer records spans. Create with New; share freely across
// goroutines. The zero value is NOT valid — but a nil *Tracer is, and
// means "disabled".
type Tracer struct {
	epoch time.Time            // wall clock at New, stamped into the journal header
	now   func() time.Duration // monotonic time since epoch

	mu      sync.Mutex
	spanSeq uint64
	trcSeq  uint64
	// bind maps internally-allocated trace ids to their cross-process
	// identity (NewTraceWith); unbound traces stay local-only.
	bind map[TraceID]traceBinding
	open map[uint64]*Span
	// done is a ring of the last spanKept finished spans; doneN counts
	// every span finished, so the oldest kept is at doneN % len(done).
	done  []SpanData
	doneN int
	micro []microTrack

	// subs are live feeds of finished spans (Subscribe); sends never
	// block — a subscriber that falls behind loses spans, not the
	// tracer its latency.
	subs   map[uint64]chan SpanData
	subSeq uint64

	journal *journalWriter
}

// New creates an enabled Tracer whose epoch is now.
func New() *Tracer {
	epoch := time.Now()
	return &Tracer{
		epoch: epoch,
		now:   func() time.Duration { return time.Since(epoch) },
		open:  make(map[uint64]*Span),
	}
}

// Enabled reports whether spans are being recorded. It is the guard
// call sites use before formatting attribute values.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the monotonic offset since the tracer's epoch, or 0
// when disabled. Use it to capture a start time for a later StartAt.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// NewTrace allocates a fresh trace ID (0 when disabled).
func (t *Tracer) NewTrace() TraceID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.trcSeq++
	id := TraceID(t.trcSeq)
	t.mu.Unlock()
	return id
}

// traceBinding is a trace's cross-process identity.
type traceBinding struct {
	w3c    string // shared hex trace id, stamped on every span
	span   string // the trace's root span's own wire span id
	parent string // remote span id the root is parented under
}

// NewTraceWith allocates a trace bound to a cross-process identity:
// every span of the trace carries w3cTraceID as its trace_id; the
// trace's root spans additionally carry ownSpanID as their wire
// span_id and remoteParent as the span (typically in another process)
// they are parented under. Either of ownSpanID/remoteParent may be
// empty: a client minting a brand-new trace has no remote parent, and
// a process that will not be propagated past needs no wire span id.
// Returns 0 when disabled.
func (t *Tracer) NewTraceWith(w3cTraceID, ownSpanID, remoteParent string) TraceID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.trcSeq++
	id := TraceID(t.trcSeq)
	if w3cTraceID != "" {
		if t.bind == nil {
			t.bind = make(map[TraceID]traceBinding)
		}
		t.bind[id] = traceBinding{w3c: w3cTraceID, span: ownSpanID, parent: remoteParent}
	}
	t.mu.Unlock()
	return id
}

// Start opens a span under parent (nil parent = trace root) starting
// now. Returns nil when disabled.
func (t *Tracer) Start(trace TraceID, parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	return t.startAt(trace, parent, name, t.now())
}

// StartAt opens a span whose start is a previously captured Now()
// value — used for retroactive spans such as singleflight waits and
// scheduling gaps, where the wait is only worth a span once it is
// known to have happened.
func (t *Tracer) StartAt(trace TraceID, parent *Span, name string, at time.Duration) *Span {
	if t == nil {
		return nil
	}
	return t.startAt(trace, parent, name, at)
}

func (t *Tracer) startAt(trace TraceID, parent *Span, name string, at time.Duration) *Span {
	s := &Span{t: t}
	s.data.Trace = trace
	s.data.Name = name
	s.data.StartUS = int64(at / time.Microsecond)
	if parent != nil {
		s.data.Parent = parent.data.Span
	}
	t.mu.Lock()
	t.spanSeq++
	s.data.Span = t.spanSeq
	if b, ok := t.bind[trace]; ok {
		s.data.TraceW3C = b.w3c
		if parent == nil {
			// Only the trace's roots carry the wire identity and the
			// remote parent: children are linked through their local
			// parent chain.
			s.data.SpanW3C = b.span
			s.data.RemoteParent = b.parent
		}
	}
	t.open[s.data.Span] = s
	t.mu.Unlock()
	return s
}

// SetAttr attaches a string attribute and returns the span for
// chaining. Safe on a nil span.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = value
	s.t.mu.Unlock()
	return s
}

// ID returns the span's ID (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.data.Span
}

// Trace returns the span's trace ID (0 for nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.data.Trace
}

// End finishes the span, journals it, and returns its duration. End
// is idempotent; calls after the first (and calls on nil) return 0.
// Root spans (no parent) force the journal to stable storage, so a
// crash loses at most the spans of the run in flight.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	t := s.t
	end := t.now()
	t.mu.Lock()
	if _, ok := t.open[s.data.Span]; !ok {
		t.mu.Unlock()
		return 0
	}
	delete(t.open, s.data.Span)
	dur := end - time.Duration(s.data.StartUS)*time.Microsecond
	if dur < 0 {
		dur = 0
	}
	s.data.DurUS = int64(dur / time.Microsecond)
	t.finishLocked(s.data)
	t.mu.Unlock()
	return dur
}

// finishLocked records a finished span and journals it. Callers hold t.mu.
func (t *Tracer) finishLocked(d SpanData) {
	if len(t.done) < spanKept {
		t.done = append(t.done, d)
	} else {
		t.done[t.doneN%spanKept] = d
	}
	t.doneN++
	for _, ch := range t.subs {
		select {
		case ch <- d:
		default: // slow subscriber: drop, never block the hot path
		}
	}
	if t.journal != nil {
		t.journal.append(d, d.Parent == 0)
	}
}

// Subscribe registers a live feed of finished spans, buffered to buf
// (minimum 1). The feed is lossy by design: a subscriber that does not
// drain fast enough misses spans rather than stalling End. Cancel
// unregisters and closes the channel; it is safe to call twice.
// Subscribing to a nil (disabled) tracer returns a nil channel —
// which blocks forever in a select — and a no-op cancel.
func (t *Tracer) Subscribe(buf int) (<-chan SpanData, func()) {
	if t == nil {
		return nil, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan SpanData, buf)
	t.mu.Lock()
	if t.subs == nil {
		t.subs = make(map[uint64]chan SpanData)
	}
	t.subSeq++
	id := t.subSeq
	t.subs[id] = ch
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		if _, ok := t.subs[id]; ok {
			delete(t.subs, id)
			close(ch)
		}
		t.mu.Unlock()
	}
}

// AttachMicro associates a pipetrace recorder with a finished (or at
// least started) macro span: in the Perfetto export the recorder's
// events become their own process, time-shifted so cycle 0 lands at
// the span's start. label names the process (typically the RunSpec).
func (t *Tracer) AttachMicro(anchor *Span, label string, rec *pipetrace.Recorder) {
	if t == nil || anchor == nil || rec == nil {
		return
	}
	t.mu.Lock()
	t.micro = append(t.micro, microTrack{
		label:   label,
		trace:   anchor.data.Trace,
		startUS: anchor.data.StartUS,
		rec:     rec,
	})
	t.mu.Unlock()
}

// Open snapshots the currently running spans, oldest first, with
// their ages at snapshot time.
func (t *Tracer) Open() []OpenSpan {
	if t == nil {
		return nil
	}
	now := int64(t.now() / time.Microsecond)
	t.mu.Lock()
	out := make([]OpenSpan, 0, len(t.open))
	for _, s := range t.open {
		o := OpenSpan{
			Trace:   s.data.Trace,
			Span:    s.data.Span,
			Parent:  s.data.Parent,
			Name:    s.data.Name,
			StartUS: s.data.StartUS,
			AgeUS:   now - s.data.StartUS,
		}
		if len(s.data.Attrs) > 0 {
			o.Attrs = make(map[string]string, len(s.data.Attrs))
			for k, v := range s.data.Attrs {
				o.Attrs[k] = v
			}
		}
		out = append(out, o)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Span < out[j].Span })
	return out
}

// Recent returns the last recentKept finished spans, oldest first.
func (t *Tracer) Recent() []SpanData { return t.last(recentKept) }

// Spans returns the last spanKept finished spans in completion order.
func (t *Tracer) Spans() []SpanData { return t.last(spanKept) }

// last returns a copy of the last n finished spans (all of them while
// fewer have finished), oldest first.
func (t *Tracer) last(n int) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n = min(n, len(t.done))
	out := make([]SpanData, n)
	for i := range out {
		// Before the ring wraps len(done) == doneN; after, the oldest
		// kept span is at doneN % len(done).
		out[i] = t.done[(t.doneN-n+i)%len(t.done)]
	}
	return out
}

// SpansForTrace returns the kept finished spans carrying the given
// cross-process trace id, in completion order — the server side of
// GET /v1/jobs/{id}/spans.
func (t *Tracer) SpansForTrace(w3cTraceID string) []SpanData {
	if t == nil || w3cTraceID == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanData
	for i := range t.done {
		if d := t.done[(t.doneN+i)%len(t.done)]; d.TraceW3C == w3cTraceID {
			out = append(out, d)
		}
	}
	return out
}

// Subscribers reports the number of live Subscribe feeds — the value
// the SSE leak tests (and a queue-depth gauge) watch.
func (t *Tracer) Subscribers() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}
