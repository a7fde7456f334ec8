package pipetrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Perfetto/Chrome trace-event track layout for a standalone export.
// The pipeline process holds one thread per pipeline stage
// (instruction lifetimes render as duration slices per stage); the
// memory process holds the translation and data-cache event tracks
// (misses, port conflicts, and page-table-walk spans). When a
// recorder is merged into a sweep-wide timeline (spans), the caller
// assigns fresh pids per run instead.
const (
	pidPipeline = 0
	pidMemory   = 1

	tidFetch    = 1
	tidDispatch = 2
	tidExecute  = 3
	tidCommit   = 4

	tidTLB    = 1
	tidDCache = 2
)

// Quote renders s as a JSON string literal: quotes and backslashes
// escaped, control bytes as \u00XX, every other byte as it is.
func Quote(s string) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = fmt.Appendf(b, "\\u%04x", c)
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// PerfettoWriter incrementally emits one Chrome/Perfetto trace-event
// JSON document: NewPerfettoWriter writes the prologue, the event
// methods append events (handling the comma discipline), and Close
// writes the epilogue and flushes. It exists so several producers —
// a macro span tracer and any number of per-run micro recorders —
// can share one timeline file; Recorder.AppendPerfetto and the
// spans package both build on it, and both escape strings with Quote.
type PerfettoWriter struct {
	bw *bufio.Writer
	n  int // events written; the first gets no leading comma
}

// NewPerfettoWriter starts a trace-event document on w.
func NewPerfettoWriter(w io.Writer) *PerfettoWriter {
	pw := &PerfettoWriter{bw: bufio.NewWriterSize(w, 64<<10)}
	fmt.Fprint(pw.bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return pw
}

// sep writes the inter-event separator (nothing before the first
// event, ",\n" before every later one).
func (p *PerfettoWriter) sep() {
	if p.n > 0 {
		p.bw.WriteString(",\n")
	}
	p.n++
}

// ProcessName emits process_name metadata for pid.
func (p *PerfettoWriter) ProcessName(pid int, name string) {
	p.sep()
	fmt.Fprintf(p.bw, "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}", pid, Quote(name))
}

// ThreadName emits thread_name metadata for (pid, tid).
func (p *PerfettoWriter) ThreadName(pid, tid int, name string) {
	p.sep()
	fmt.Fprintf(p.bw, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
		pid, tid, Quote(name))
}

// Slice emits one complete ("X") duration event. args is the raw
// inner body of the args object (may be empty). Durations are
// clamped to at least 1 so zero-length slices stay visible.
func (p *PerfettoWriter) Slice(pid, tid int, ts, dur int64, name string, args string) {
	if dur < 1 {
		dur = 1
	}
	p.sep()
	fmt.Fprintf(p.bw, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":%s,\"args\":{%s}}",
		pid, tid, ts, dur, Quote(name), args)
}

// Instant emits one instant ("i") event (thread scope).
func (p *PerfettoWriter) Instant(pid, tid int, ts int64, name string, args string) {
	p.sep()
	fmt.Fprintf(p.bw, "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"name\":%s,\"args\":{%s}}",
		pid, tid, ts, Quote(name), args)
}

// Close terminates the document and flushes.
func (p *PerfettoWriter) Close() error {
	fmt.Fprint(p.bw, "\n]}\n")
	return p.bw.Flush()
}

// WritePerfetto exports the recorded events as Chrome/Perfetto
// trace-event JSON, loadable in ui.perfetto.dev or chrome://tracing.
// One simulated cycle maps to one microsecond of trace time.
//
// Instruction lifetimes become one duration slice per stage the
// instruction was observed in: fetch (fetch queue residence), dispatch
// (ROB wait before issue), execute (issue to completion), and commit
// (completion to retirement). Slices of instructions still in flight
// when the window closed are extended to the last recorded cycle.
// Translation and cache events render as instants (misses, port
// rejections) and spans (page-table walks) on their own tracks.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	pw := NewPerfettoWriter(w)
	r.AppendPerfetto(pw, pidPipeline, pidMemory, 0, "pipeline", "translation+memory")
	return pw.Close()
}

// AppendPerfetto merges this recorder's events into an open
// PerfettoWriter as two processes (pipeline stages and
// translation+memory tracks) named pipeName and memName. Every
// timestamp is shifted by tsOffset microseconds, which is how a
// run's cycle-0 micro events are nested under that run's macro span
// on a sweep-wide timeline.
func (r *Recorder) AppendPerfetto(pw *PerfettoWriter, pidPipe, pidMem int, tsOffset int64, pipeName, memName string) {
	events := r.Events()
	lives, _, maxCycle := lifetimes(events)

	pw.ProcessName(pidPipe, pipeName)
	for _, t := range []struct {
		tid  int
		name string
	}{
		{tidFetch, "fetch"},
		{tidDispatch, "dispatch"},
		{tidExecute, "execute"},
		{tidCommit, "commit"},
	} {
		pw.ThreadName(pidPipe, t.tid, t.name)
	}
	pw.ProcessName(pidMem, memName)
	pw.ThreadName(pidMem, tidTLB, "tlb")
	pw.ThreadName(pidMem, tidDCache, "dcache")

	// Per-instruction stage slices.
	for _, l := range lives {
		name := fmt.Sprintf("0x%x %s", l.pc, l.disasm())
		end := l.retired()
		if end < 0 {
			end = maxCycle + 1
		}
		args := fmt.Sprintf("\"seq\":%d", l.seq)
		if l.squash >= 0 {
			args += ",\"squashed\":true"
		}
		if l.fault {
			args += ",\"faulted\":true"
		}
		if l.tlbMisses > 0 {
			args += fmt.Sprintf(",\"tlb_misses\":%d,\"walk_cycles\":%d", l.tlbMisses, l.walkCycles)
		}
		// Each slice runs from its stage event to the next observed
		// stage boundary (or the instruction's end for the last one).
		stages := []struct {
			tid         int
			start, stop int64
		}{
			{tidFetch, l.fetch, firstAtOrAfter(l.dispatch, end)},
			{tidDispatch, l.dispatch, firstAtOrAfter(l.issue, end)},
			{tidExecute, l.issue, firstAtOrAfter(l.complete, end)},
			{tidCommit, l.complete, end},
		}
		for _, s := range stages {
			if s.start < 0 {
				continue
			}
			stop := s.stop
			if stop < s.start {
				stop = s.start + 1
			}
			pw.Slice(pidPipe, s.tid, tsOffset+s.start, stop-s.start, name, args)
		}
	}

	// Translation and cache tracks: walks as spans, the rest as
	// instants.
	walkStart := make(map[int64]int64)
	for i := range events {
		ev := &events[i]
		args := fmt.Sprintf("\"seq\":%d,\"pc\":\"0x%x\"", ev.Seq, ev.PC)
		switch ev.Kind {
		case KTLBMiss, KTLBNoPort:
			pw.Instant(pidMem, tidTLB, tsOffset+ev.Cycle, ev.Kind.String(), args)
		case KWalkStart:
			walkStart[ev.Seq] = ev.Cycle
		case KWalkEnd:
			start, ok := walkStart[ev.Seq]
			if !ok {
				start = ev.Cycle - ev.Arg
			}
			delete(walkStart, ev.Seq)
			pw.Slice(pidMem, tidTLB, tsOffset+start, ev.Cycle-start,
				fmt.Sprintf("walk 0x%x", ev.PC), args)
		case KDCacheMiss, KDCachePort:
			pw.Instant(pidMem, tidDCache, tsOffset+ev.Cycle, ev.Kind.String(), args)
		}
	}
	// Walks still in flight at the window's end, in seq order so the
	// export stays byte-stable.
	pending := make([]int64, 0, len(walkStart))
	for seq := range walkStart {
		pending = append(pending, seq)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	for _, seq := range pending {
		start := walkStart[seq]
		pw.Slice(pidMem, tidTLB, tsOffset+start, maxCycle+1-start, "walk (in flight)",
			fmt.Sprintf("\"seq\":%d", seq))
	}
}

// firstAtOrAfter returns next if it is known (>= 0), else fallback.
func firstAtOrAfter(next, fallback int64) int64 {
	if next >= 0 {
		return next
	}
	return fallback
}
