package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side span: an interval around a call into a
// layer. Parent is the index of the span that caused it (-1 for a
// root); spans of one operation — one grid pass, one job, one ladder
// rung — share Op.
type span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so the untraced run executes
// the same code without the bookkeeping.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allots an operation identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span now and returns its index (-1 when off).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, op, time.Now(), time.Time{})
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// add records a span with known bounds; a zero end leaves it open.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, StartUS: start.Sub(t.t0).Microseconds(), Parent: parent, Op: op}
	if !end.IsZero() {
		s.EndUS = end.Sub(t.t0).Microseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns each span's self time in microseconds: its
// duration minus the part of its interval that its child spans cover.
// Children may overlap (parallel runs under one pass), so the covered
// part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.StartUS, p.StartUS), min(s.EndUS, p.EndUS)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, edge int64
		edge = s.StartUS
		for _, k := range iv {
			if k[1] <= edge {
				continue
			}
			covered += k[1] - max(k[0], edge)
			edge = k[1]
		}
		self[i] = s.EndUS - s.StartUS - covered
	}
	return self
}

// spanTimes collects, per span name, the durations (or self times) in
// milliseconds.
func spanTimes(spans []span, self bool) map[string][]float64 {
	var st []int64
	if self {
		st = selfTimes(spans)
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		us := s.EndUS - s.StartUS
		if self {
			us = st[i]
		}
		out[s.Name] = append(out[s.Name], float64(us)/1e3)
	}
	return out
}

// spanKey carries the current span (tracer, index, op) through a
// context, so a RoundTripper deep inside api.Client.Wait can parent
// each poll under the wait span that caused it.
type spanKey struct{}

type spanRef struct {
	t      *tracer
	id, op int
}

func withSpan(ctx context.Context, t *tracer, id, op int) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{t, id, op})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}
