package obs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"
)

// Slow-client bounds for the daemon's listener and the -obs one. There
// is no write timeout: /v1/jobs/{id}/events streams for as long as a
// job runs, and /debug/pprof/profile for as long as it is asked to.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Daemon is what hbatd's role (worker or coordinator) hands the one
// serve loop.
type Daemon struct {
	// Addr is the one listen address for the job API and the
	// observability endpoints.
	Addr string
	// V1 serves /v1/...; Obs configures everything else on the listener.
	V1  http.Handler
	Obs Config
	// Shutdown drains the daemon; DrainTimeout bounds it.
	Shutdown     func(context.Context) error
	DrainTimeout time.Duration
	// Listening is extra attributes for the "listening" record.
	Listening []any
}

// Serve runs a daemon to completion: one listener, two routing tables
// (/v1/... is the job API, everything else the shared observability
// surface), until ctx ends. Then a graceful drain: d.Shutdown and the
// HTTP server's own shutdown share DrainTimeout, the span session is
// finished, and Serve returns for the caller to log its last record.
// stop releases ctx's signal handler as the drain starts, so a second
// signal kills immediately.
//
// With an engine behind it (d.Obs.Engine) the listener's /health is the
// -obs-watchdog verdict, the same watchdog a -obs listener reports;
// without one there is no heartbeat to miss and /health stays ok.
func (f *Flags) Serve(ctx context.Context, stop context.CancelFunc, logger *slog.Logger, d Daemon) error {
	d.Obs.Watchdog = f.watchdogFor(d.Obs.Engine)
	mux := http.NewServeMux()
	mux.Handle("/v1/", d.V1)
	mux.Handle("/", NewHandler(d.Obs))

	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("hbatd listening", append([]any{"addr", ln.Addr().String()}, d.Listening...)...)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()

	logger.Info("drain started", "timeout", d.DrainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
	defer cancel()
	if err := d.Shutdown(dctx); err != nil {
		logger.Error("drain incomplete", "error", err.Error())
	}
	if err := srv.Shutdown(dctx); err != nil {
		logger.Error("http shutdown incomplete", "error", err.Error())
	}
	if path, err := f.FinishSpans(); err != nil {
		return err
	} else if path != "" {
		logger.Info("spans written", "timeline", path)
	}
	return nil
}

// Fatal reports the daemon's fatal error and exits: 130 when the cause
// is a cancelled context (the shell convention for SIGINT), 1 otherwise.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "hbatd:", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
