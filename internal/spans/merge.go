package spans

import (
	"fmt"
	"io"
	"time"

	"hbat/internal/pipetrace"
)

// JournalPart is one process's span journal, as fetched or read back
// by a merging client: its display label ("client", "hbatd", ...),
// the journal header (whose epoch anchors the spans on the shared
// wall-clock axis), and the decoded spans.
type JournalPart struct {
	Label  string
	Header Header
	Spans  []SpanData
}

// MergeStats summarizes the cross-process linkage WriteMergedPerfetto
// found: how many spans each part contributed and how many root spans
// were parented under a span of another part — zero linked roots on a
// two-part merge means the journals do not actually share a trace.
type MergeStats struct {
	Spans  []int // per part, same order as the input
	Linked int   // roots whose RemoteParent resolved to another part's span
}

// WriteMergedPerfetto renders several span journals — typically the
// submitting client's and the serving hbatd's — as one Chrome/Perfetto
// trace-event document on a single wall-clock axis. Each part's spans
// are shifted by its epoch's offset from the earliest epoch, so a
// server span opened two processes away still lands at the true wall
// time inside the client's Simulate span. Each part becomes its own
// Perfetto process with one thread per internal trace, keeping the
// per-part layout identical to the single-process export.
func WriteMergedPerfetto(w io.Writer, parts []JournalPart) (MergeStats, error) {
	st := MergeStats{Spans: make([]int, len(parts))}
	if len(parts) == 0 {
		return st, fmt.Errorf("spans: nothing to merge")
	}

	// Epoch alignment: every part's StartUS values are microseconds
	// since its own header epoch; shift them all onto the earliest one.
	epochs := make([]time.Time, len(parts))
	var min time.Time
	for i, p := range parts {
		ep, err := time.Parse(time.RFC3339Nano, p.Header.Epoch)
		if err != nil {
			return st, fmt.Errorf("spans: part %q: bad epoch %q: %w", p.Label, p.Header.Epoch, err)
		}
		epochs[i] = ep
		if i == 0 || ep.Before(min) {
			min = ep
		}
	}

	// Cross-process linkage: which wire span ids exist in which part.
	spanOwner := make(map[string]int)
	for i, p := range parts {
		for _, d := range p.Spans {
			if d.SpanW3C != "" {
				spanOwner[d.SpanW3C] = i
			}
		}
	}

	pw := pipetrace.NewPerfettoWriter(w)
	for i, p := range parts {
		shift := epochs[i].Sub(min).Microseconds()
		spans := append([]SpanData(nil), p.Spans...)
		writePart(pw, i, fmt.Sprintf("%s (wall µs, epoch %+dµs)", p.Label, shift), p.Label+" ", shift, spans)
		st.Spans[i] = len(spans)
		for _, d := range spans {
			if d.Parent == 0 && d.RemoteParent != "" {
				if owner, ok := spanOwner[d.RemoteParent]; ok && owner != i {
					st.Linked++
				}
			}
		}
	}
	return st, pw.Close()
}
