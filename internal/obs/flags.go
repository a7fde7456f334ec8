package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"hbat/internal/engine"
	"hbat/internal/spans"
)

// Flags is the shared observability flag set every cmd/hbat* binary
// registers: -obs, -log-level, -log-format, -obs-watchdog, -spans,
// and -spans-out.
type Flags struct {
	Addr     string
	LogLevel string
	Format   string
	Watchdog time.Duration
	Spans    bool
	SpansOut string

	// tracer is the span tracer Setup created for -spans; FinishSpans
	// exports and closes it.
	tracer *spans.Tracer
	// watchdog is the one -obs-watchdog monitor, created by the first
	// listener that serves /health for an engine.
	watchdog *Watchdog
}

// AddFlags registers the observability flags on fs and returns the
// struct they populate.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "obs", "", "serve /metrics, /health, /ready, /debug/spans, and /debug/pprof on this address (e.g. :8090; empty = off)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log verbosity: debug, info, warn, or error")
	fs.StringVar(&f.Format, "log-format", "text", "log encoding: text or json")
	fs.DurationVar(&f.Watchdog, "obs-watchdog", 2*time.Minute, "report unhealthy when a sweep makes no progress for this long (0 = never)")
	fs.BoolVar(&f.Spans, "spans", false, "record per-run phase spans (build/checkpoint/fast-forward/simulate, cache + singleflight visibility)")
	fs.StringVar(&f.SpansOut, "spans-out", "spans", "span output path prefix: <prefix>.jsonl journal (streamed) and <prefix>.perfetto.json merged timeline (on exit; needs -spans)")
	return f
}

// NewLogger builds the slog logger the flags describe, writing to w.
func (f *Flags) NewLogger(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(f.LogLevel) {
	case "debug":
		level = slog.LevelDebug
	case "info", "":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", f.LogLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(f.Format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", f.Format)
	}
}

// Setup wires the flags into a logger and, when -obs is set, a running
// observability server bound to the engine: the logger becomes the
// engine's run logger, the progress watchdog becomes its heartbeat,
// and ctx cancellation flips the engine to draining so /ready reports
// it. With -spans set a span tracer is created, attached to the
// engine (and to /debug/spans when the server runs), and its journal
// opened at <SpansOut>.jsonl; call FinishSpans before exit to export
// the merged Perfetto timeline. With -obs unset no listener is opened
// and no goroutine started; only the logger is returned. logw
// receives log output (typically os.Stderr). Callers must Close the
// returned server when non-nil.
func (f *Flags) Setup(ctx context.Context, logw io.Writer, engine *engine.Engine) (*slog.Logger, *Server, error) {
	logger, err := f.NewLogger(logw)
	if err != nil {
		return nil, nil, err
	}
	if engine != nil {
		engine.SetLogger(logger)
	}
	if f.Spans {
		tr := spans.New()
		if err := tr.OpenJournal(f.SpansOut + ".jsonl"); err != nil {
			return nil, nil, err
		}
		f.tracer = tr
		if engine != nil {
			engine.SetSpans(tr)
		}
	}
	if f.Addr == "" {
		return logger, nil, nil
	}
	srv, err := Start(Config{
		Addr:     f.Addr,
		Engine:   engine,
		Watchdog: f.watchdogFor(engine),
		Spans:    f.tracer,
		Logger:   logger,
	})
	if err != nil {
		return nil, nil, err
	}
	if engine != nil && ctx != nil {
		go func() {
			<-ctx.Done()
			engine.SetAccepting(false)
		}()
	}
	logger.Info("observability server listening", "addr", srv.Addr())
	return logger, srv, nil
}

// watchdogFor returns the -obs-watchdog monitor with eng's heartbeat
// wired to it, creating it on first use. It is nil when the watchdog is
// off (-obs-watchdog 0) or there is no engine to beat it: a process
// that never simulates has no progress to lose, and a watchdog nobody
// touches would report it wedged.
func (f *Flags) watchdogFor(eng *engine.Engine) *Watchdog {
	if eng == nil || f.Watchdog <= 0 {
		return nil
	}
	if f.watchdog == nil {
		f.watchdog = NewWatchdog(f.Watchdog)
		eng.SetHeartbeat(f.watchdog.Touch)
	}
	return f.watchdog
}

// Tracer returns the span tracer Setup created for -spans (nil when
// span tracing is off).
func (f *Flags) Tracer() *spans.Tracer { return f.tracer }

// FinishSpans ends a -spans session: it writes the merged Perfetto
// timeline to <SpansOut>.perfetto.json and closes the streamed
// journal, returning the timeline path (empty when tracing was off).
// Journal write errors accumulated during the run surface here.
func (f *Flags) FinishSpans() (string, error) {
	tr := f.tracer
	if !tr.Enabled() {
		return "", nil
	}
	f.tracer = nil
	path := f.SpansOut + ".perfetto.json"
	werr := tr.WritePerfettoFile(path)
	cerr := tr.CloseJournal()
	if werr != nil {
		return "", werr
	}
	return path, cerr
}
