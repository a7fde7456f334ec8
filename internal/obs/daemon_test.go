package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"

	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

// syncBuffer is a log sink the daemon writes and the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serveDaemon runs f.Serve(d) on a loopback port and returns the
// listener's base URL. Cleanup drains it and fails the test if Serve
// returned an error.
func serveDaemon(t *testing.T, f *Flags, d Daemon) string {
	t.Helper()
	var logs syncBuffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	ctx, cancel := context.WithCancel(context.Background())
	d.Addr, d.DrainTimeout = "127.0.0.1:0", 5*time.Second
	d.V1 = http.NotFoundHandler()
	d.Shutdown = func(context.Context) error { return nil }
	done := make(chan error, 1)
	go func() { done <- f.Serve(ctx, func() {}, logger, d) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	addrRE := regexp.MustCompile(`msg="hbatd listening" addr=(\S+)`)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(logs.String()); m != nil {
			return "http://" + m[1]
		}
	}
	t.Fatalf("daemon never logged its address:\n%s", logs.String())
	return ""
}

func healthStatus(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Status string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("bad /health JSON: %v", err)
	}
	return resp.StatusCode, body.Status
}

// TestDaemonHealthIsTheWatchdogVerdict: -obs-watchdog reaches the
// daemon's one listener without -obs. With an engine behind it /health
// says wedged once a run is in flight past the timeout (and ok while
// idle); a daemon with no engine — the coordinator role — has no
// heartbeat to miss and stays ok, on the main listener and on -obs.
func TestDaemonHealthIsTheWatchdogVerdict(t *testing.T) {
	// Any in-flight run outlives a nanosecond.
	eng := engine.New()
	f := &Flags{Watchdog: time.Nanosecond}
	base := serveDaemon(t, f, Daemon{Obs: Config{Engine: eng}})
	if code, status := healthStatus(t, base); code != http.StatusOK || status != "ok" {
		t.Fatalf("idle worker: /health %d %q, want 200 ok", code, status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		eng.Run(ctx, engine.RunSpec{
			Workload: "compress", Design: "T4", Budget: prog.Budget32,
			Scale: workload.ScaleFull, PageSize: 4096, Seed: 1,
		})
	}()
	defer func() { cancel(); <-ran }()
	wedged := false
	for deadline := time.Now().Add(10 * time.Second); !wedged && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		code, status := healthStatus(t, base)
		wedged = code == http.StatusServiceUnavailable && status == "wedged"
	}
	if !wedged {
		t.Error("worker with a run in flight past -obs-watchdog: /health on the main listener never said wedged")
	}

	coord := &Flags{Watchdog: time.Nanosecond, Addr: "127.0.0.1:0"}
	_, osrv, err := coord.Setup(context.Background(), io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer osrv.Close()
	for _, b := range []string{serveDaemon(t, coord, Daemon{}), "http://" + osrv.Addr()} {
		if code, status := healthStatus(t, b); code != http.StatusOK || status != "ok" {
			t.Errorf("engine-less daemon at %s: /health %d %q, want 200 ok", b, code, status)
		}
	}
}

// TestStartBoundsSlowClients: the -obs listener gets the daemon
// listener's header and idle timeouts, so a client that never finishes
// its request line cannot hold a connection open forever.
func TestStartBoundsSlowClients(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.http.ReadHeaderTimeout; got != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
	if got := srv.http.IdleTimeout; got != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", got, idleTimeout)
	}
}
