package spans

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestNewTraceContextShape(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("fresh context invalid: %+v", tc)
	}
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("id lengths = %d/%d, want 32/16", len(tc.TraceID), len(tc.SpanID))
	}
	if tc2 := NewTraceContext(); tc2.TraceID == tc.TraceID {
		t.Fatal("two minted contexts share a trace id")
	}
	if sp := NewSpanID(); len(sp) != 16 || !validHexID(sp, 16) {
		t.Fatalf("NewSpanID() = %q, want 16 hex chars", sp)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	hdr := tc.Traceparent()
	want := "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
	if hdr != want {
		t.Fatalf("Traceparent() = %q, want %q", hdr, want)
	}
	got, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if got != tc {
		t.Fatalf("round trip = %+v, want %+v", got, tc)
	}
	// Flags other than 01 are accepted and ignored.
	if _, err := ParseTraceparent("00-" + tc.TraceID + "-" + tc.SpanID + "-00"); err != nil {
		t.Fatalf("unsampled flags rejected: %v", err)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	good := TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("2", 16)}
	for _, bad := range []string{
		"",
		"not-a-traceparent",
		"01-" + good.TraceID + "-" + good.SpanID + "-01",                  // unknown version
		"00-" + strings.Repeat("0", 32) + "-" + good.SpanID + "-01",       // all-zero trace
		"00-" + good.TraceID + "-" + strings.Repeat("0", 16) + "-01",      // all-zero span
		"00-" + strings.ToUpper(good.TraceID) + "-" + good.SpanID + "-01", // uppercase
		"00-" + good.TraceID[:30] + "-" + good.SpanID + "-01",             // short trace
		"00-" + good.TraceID + "-" + good.SpanID,                          // missing flags
		"00-" + good.TraceID + "-" + good.SpanID + "-",                    // empty flags
		"00-" + good.TraceID + "-" + good.SpanID + "-zz",                  // non-hex flags
		"00-" + good.TraceID + "-" + good.SpanID + "-0123",                // long flags
		"00-" + good.TraceID + "-" + good.SpanID + "-1",                   // short flags
		"00-" + good.TraceID + "-" + good.SpanID + "-0A",                  // uppercase flags
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", bad)
		}
	}
}

// FuzzTraceparent: parsing never panics, and every accepted header
// re-renders (Traceparent) to one that parses back to the same context.
func FuzzTraceparent(f *testing.F) {
	tc := TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	for _, seed := range []string{
		tc.Traceparent(),
		"00-" + tc.TraceID + "-" + tc.SpanID + "-00",
		"00-" + tc.TraceID + "-" + tc.SpanID + "-zz",
		"00-" + tc.TraceID + "-" + tc.SpanID,
		" " + tc.Traceparent() + "\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		again, err := ParseTraceparent(got.Traceparent())
		if err != nil {
			t.Fatalf("ParseTraceparent(%q) = %+v, whose Traceparent() does not parse: %v", s, got, err)
		}
		if again != got {
			t.Fatalf("ParseTraceparent(%q) = %+v, re-parsed as %+v", s, got, again)
		}
	})
}

func TestContextThreading(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("empty context reports a trace")
	}
	tc := NewTraceContext()
	ctx := ContextWithTrace(context.Background(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v/%v, want %+v/true", got, ok, tc)
	}
	// An invalid context threads through but does not report ok.
	ctx = ContextWithTrace(context.Background(), TraceContext{TraceID: "xyz"})
	if _, ok := TraceFromContext(ctx); ok {
		t.Fatal("invalid trace context reported ok")
	}
}

// TestBoundTraceStamping exercises NewTraceWith: every span carries the
// shared trace id, only roots carry the wire span id and remote parent.
func TestBoundTraceStamping(t *testing.T) {
	clk := &testClock{}
	tr := clk.tracer()
	traceID := strings.Repeat("ab", 16)
	rt := tr.NewTraceWith(traceID, strings.Repeat("cd", 8), strings.Repeat("ef", 8))
	root := tr.Start(rt, nil, "run")
	child := tr.Start(rt, root, "simulate")
	child.End()
	root.End()

	spans := tr.SpansForTrace(traceID)
	if len(spans) != 2 {
		t.Fatalf("SpansForTrace: %d spans, want 2", len(spans))
	}
	for _, d := range spans {
		if d.TraceW3C != traceID {
			t.Fatalf("span %q trace_id = %q, want %q", d.Name, d.TraceW3C, traceID)
		}
	}
	// Completion order: child first, root second.
	if spans[0].SpanW3C != "" || spans[0].RemoteParent != "" {
		t.Fatalf("child carries wire identity: %+v", spans[0])
	}
	if spans[1].SpanW3C != strings.Repeat("cd", 8) || spans[1].RemoteParent != strings.Repeat("ef", 8) {
		t.Fatalf("root wire identity = %q/%q", spans[1].SpanW3C, spans[1].RemoteParent)
	}

	// Unbound traces stay local-only.
	lt := tr.NewTrace()
	tr.Start(lt, nil, "local").End()
	for _, d := range tr.Spans() {
		if d.Trace == lt && (d.TraceW3C != "" || d.SpanW3C != "") {
			t.Fatalf("unbound trace stamped with wire identity: %+v", d)
		}
	}
	if got := tr.SpansForTrace(traceID); len(got) != 2 {
		t.Fatalf("SpansForTrace after local trace: %d spans, want 2", len(got))
	}
}

func TestWriteJournalToFiltersByTrace(t *testing.T) {
	clk := &testClock{}
	tr := clk.tracer()
	traceID := strings.Repeat("12", 16)
	bt := tr.NewTraceWith(traceID, strings.Repeat("34", 8), "")
	tr.Start(bt, nil, "job").End()
	tr.Start(tr.NewTrace(), nil, "other").End()

	var buf bytes.Buffer
	if err := tr.WriteJournalTo(&buf, traceID); err != nil {
		t.Fatal(err)
	}
	hdr, spans, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.V != JournalVersion {
		t.Fatalf("header version = %d, want %d", hdr.V, JournalVersion)
	}
	if len(spans) != 1 || spans[0].Name != "job" || spans[0].TraceW3C != traceID {
		t.Fatalf("filtered journal = %+v, want the one bound span", spans)
	}

	// Empty filter writes everything.
	buf.Reset()
	if err := tr.WriteJournalTo(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, spans, _ = ReadJournal(&buf); len(spans) != 2 {
		t.Fatalf("unfiltered journal has %d spans, want 2", len(spans))
	}

	// Nil tracer: no output, no error.
	buf.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteJournalTo(&buf, ""); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer wrote %d bytes, err %v", buf.Len(), err)
	}
}

// TestWriteMergedPerfetto merges a synthetic client and server journal
// and checks epoch alignment and cross-process linkage counting.
func TestWriteMergedPerfetto(t *testing.T) {
	traceID := strings.Repeat("ab", 16)
	clientSpan := strings.Repeat("cd", 8)
	serverSpan := strings.Repeat("ef", 8)
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

	client := JournalPart{
		Label:  "client",
		Header: Header{V: JournalVersion, Epoch: epoch.Format(time.RFC3339Nano)},
		Spans: []SpanData{
			{Trace: 1, Span: 1, Name: "fabric_simulate", StartUS: 0, DurUS: 5000,
				TraceW3C: traceID, SpanW3C: clientSpan},
		},
	}
	server := JournalPart{
		Label: "hbatd",
		// The server process started 2ms later: its StartUS values must
		// shift by +2000 on the merged axis.
		Header: Header{V: JournalVersion, Epoch: epoch.Add(2 * time.Millisecond).Format(time.RFC3339Nano)},
		Spans: []SpanData{
			{Trace: 1, Span: 1, Name: "job", StartUS: 100, DurUS: 2000,
				TraceW3C: traceID, SpanW3C: serverSpan, RemoteParent: clientSpan},
			{Trace: 2, Span: 2, Name: "run", StartUS: 200, DurUS: 1500,
				TraceW3C: traceID, SpanW3C: strings.Repeat("99", 8), RemoteParent: serverSpan},
		},
	}

	var buf bytes.Buffer
	st, err := WriteMergedPerfetto(&buf, []JournalPart{client, server})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans[0] != 1 || st.Spans[1] != 2 {
		t.Fatalf("per-part span counts = %v, want [1 2]", st.Spans)
	}
	// The job root links to the client's span; the run root links to the
	// job span, which lives in the same part and therefore must NOT
	// count as a cross-process link.
	if st.Linked != 1 {
		t.Fatalf("linked roots = %d, want 1", st.Linked)
	}
	out := buf.String()
	if !strings.Contains(out, `"ts":2100`) {
		t.Fatalf("server job span not shifted onto the client epoch:\n%s", out)
	}
	if !strings.Contains(out, `"fabric_simulate"`) || !strings.Contains(out, `"job"`) {
		t.Fatalf("merged output missing spans:\n%s", out)
	}
	if !strings.Contains(out, `"trace_id":"`+traceID+`"`) {
		t.Fatalf("merged output missing trace_id args:\n%s", out)
	}

	// A part with a bad epoch is an error, not a silent misalignment.
	bad := server
	bad.Header.Epoch = "not-a-time"
	if _, err := WriteMergedPerfetto(&bytes.Buffer{}, []JournalPart{client, bad}); err == nil {
		t.Fatal("bad epoch accepted")
	}
	if _, err := WriteMergedPerfetto(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("empty merge accepted")
	}
}
