package engine

import (
	"errors"
	"log/slog"

	"hbat/internal/prog"
	"hbat/internal/spans"
)

// ErrStarted is returned by SetCheckpointStore, the one
// result-affecting Set* method, once the engine has executed work, so
// a concurrent scheduler never observes a half-applied change.
var ErrStarted = errors.New("engine: configuration is frozen after first run")

// start latches the engine as started, freezing its configuration.
func (e *Engine) start() { e.started.Store(true) }

// SetCheckpointStore persists warmed checkpoints in s; nil disables
// persistence. Returns ErrStarted once the engine has run.
func (e *Engine) SetCheckpointStore(s BlobStore) error {
	if e.started.Load() {
		return ErrStarted
	}
	e.ckptStore = s
	return nil
}

// SetLogger replaces the engine's logger (nil disables logging).
// Observability sinks carry no result-affecting state, so unlike the
// checkpoint store they may be attached at any time, including
// mid-sweep.
func (e *Engine) SetLogger(l *slog.Logger) {
	e.obsMu.Lock()
	e.logger = l
	e.obsMu.Unlock()
}

// SetSpans replaces the engine's span tracer (nil disables tracing).
// Safe at any time, including mid-sweep; see SetLogger.
func (e *Engine) SetSpans(tr *spans.Tracer) {
	e.obsMu.Lock()
	e.spans = tr
	e.obsMu.Unlock()
}

// SetHeartbeat replaces the engine's liveness callback (nil detaches
// it). Safe at any time, including mid-sweep; see SetLogger.
func (e *Engine) SetHeartbeat(fn func()) {
	e.obsMu.Lock()
	e.heartbeatFn = fn
	e.obsMu.Unlock()
}

// Spans returns the engine's span tracer (nil when tracing is off).
func (e *Engine) Spans() *spans.Tracer {
	e.obsMu.RLock()
	defer e.obsMu.RUnlock()
	return e.spans
}

// Logger returns the engine's logger (nil when logging is off).
func (e *Engine) Logger() *slog.Logger {
	e.obsMu.RLock()
	defer e.obsMu.RUnlock()
	return e.logger
}

// beat returns the engine's liveness callback (nil when detached).
func (e *Engine) beat() func() {
	e.obsMu.RLock()
	defer e.obsMu.RUnlock()
	return e.heartbeatFn
}

// BuildProgram resolves a spec's program through the engine's build
// cache — the functional-only entry point Figure 6 and tooling use when
// they need the program without a timing run.
func (e *Engine) BuildProgram(spec RunSpec) (*prog.Program, error) {
	e.start()
	return e.buildProgram(spec)
}
