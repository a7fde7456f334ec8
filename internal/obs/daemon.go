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

// Slow-client bounds for the daemons' listener. There is no write
// timeout: /v1/jobs/{id}/events streams for as long as a job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Daemon is what differs between the serving binaries' main loops.
type Daemon struct {
	// Tool names the binary in its log records ("hbatd listening").
	Tool string
	// Addr is the one listen address for the job API and the
	// observability endpoints.
	Addr string
	// V1 serves /v1/...; Obs configures everything else on the listener.
	V1  http.Handler
	Obs Config
	// Shutdown drains the daemon; DrainTimeout bounds it.
	Shutdown     func(context.Context) error
	DrainTimeout time.Duration
	// Listening is extra attributes for the "listening" record; Stopped
	// returns the attributes of the final "stopped" record.
	Listening []any
	Stopped   func() []any
}

// Serve runs a daemon to completion: one listener, two routing tables
// (/v1/... is the job API, everything else the shared observability
// surface), until ctx ends. Then a graceful drain: d.Shutdown and the
// HTTP server's own shutdown share DrainTimeout, the span session is
// finished, and the "stopped" record is logged. stop releases ctx's
// signal handler as the drain starts, so a second signal kills
// immediately.
func (f *Flags) Serve(ctx context.Context, stop context.CancelFunc, logger *slog.Logger, d Daemon) error {
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
	logger.Info(d.Tool+" listening", append([]any{"addr", ln.Addr().String()}, d.Listening...)...)

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
	logger.Info(d.Tool+" stopped", d.Stopped()...)
	return nil
}

// Fatal reports a daemon's fatal error and exits: 130 when the cause is
// a cancelled context (the shell convention for SIGINT), 1 otherwise.
func Fatal(tool string, err error) {
	fmt.Fprintln(os.Stderr, tool+":", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
