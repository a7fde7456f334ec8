package spans

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceContext is a W3C-traceparent-style cross-process trace
// identity: the trace every process's spans join (TraceID) and the
// span the next process's work is parented under (SpanID). The api
// client mints one per submitted job, sends it on the wire, and the
// hbatd transport threads it into the engine's span tracer — which is
// what stitches a client's Simulate span and the server's
// run > checkpoint > simulate tree into one trace.
type TraceContext struct {
	// TraceID is 32 lowercase hex characters, not all zero.
	TraceID string
	// SpanID is 16 lowercase hex characters, not all zero: the parent
	// span the receiving process roots its spans under.
	SpanID string
}

// NewTraceContext mints a fresh trace identity from crypto/rand.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8)}
}

// NewSpanID mints a fresh 16-hex-char span identity — what a process
// stamps on its own root span before propagating the trace further.
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// Valid reports whether both IDs have the right shape: correct length,
// lowercase hex, not all zero.
func (tc TraceContext) Valid() bool {
	return validHexID(tc.TraceID, 32) && validHexID(tc.SpanID, 16)
}

func validHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < len(s); i++ {
		if !isLowerHex(s[i]) {
			return false
		}
		if s[i] != '0' {
			zero = false
		}
	}
	return !zero
}

func isLowerHex(c byte) bool { return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set).
func (tc TraceContext) Traceparent() string {
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceparent decodes a W3C traceparent header value. Only the
// version-00 shape is understood; trace flags must be two lowercase
// hex digits and are otherwise ignored.
func ParseTraceparent(s string) (TraceContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 {
		return TraceContext{}, fmt.Errorf("spans: traceparent %q: want 4 dash-separated fields", s)
	}
	if parts[0] != "00" {
		return TraceContext{}, fmt.Errorf("spans: traceparent version %q not supported", parts[0])
	}
	tc := TraceContext{TraceID: parts[1], SpanID: parts[2]}
	if !tc.Valid() {
		return TraceContext{}, fmt.Errorf("spans: traceparent %q: malformed trace or span id", s)
	}
	if f := parts[3]; len(f) != 2 || !isLowerHex(f[0]) || !isLowerHex(f[1]) {
		return TraceContext{}, fmt.Errorf("spans: traceparent %q: malformed trace flags", s)
	}
	return tc, nil
}

// ctxKey keys the TraceContext stored in a context.Context.
type ctxKey struct{}

// ContextWithTrace returns a context carrying tc, for threading a
// cross-process trace identity through APIs that already take a
// context (engine.Run, most usefully).
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// TraceFromContext extracts the TraceContext threaded by
// ContextWithTrace, reporting whether one was present and valid.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(ctxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}
