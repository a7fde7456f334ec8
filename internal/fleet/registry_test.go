package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/store"
)

// unreachable is the transport of a worker client that never dials: a
// registry test needs addresses, not workers.
type unreachable struct{}

func (unreachable) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("no worker behind this address")
}

func registryConfig(t *testing.T, workers int) Config {
	t.Helper()
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:      st,
		ProbeEvery: time.Hour,
		Client: func(addr string) *api.Client {
			cl := api.NewClient(addr)
			cl.HTTP = &http.Client{Transport: unreachable{}}
			return cl
		},
	}
	for i := 0; i < workers; i++ {
		cfg.Workers = append(cfg.Workers, fmt.Sprintf("http://static-%d.test:9090", i))
	}
	return cfg
}

// TestWorkerRegistryIsBounded: the static -worker list and runtime
// registrations share one cap. The registration that fills it is
// accepted, the next new address is a typed 409, and re-registering a
// known address — static or registered — is free however full the
// registry is. A static list beyond the cap is refused at New.
func TestWorkerRegistryIsBounded(t *testing.T) {
	cfg := registryConfig(t, maxWorkers-1)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	h := c.Handler()
	register := func(addr string) (int, api.Error) {
		t.Helper()
		body := strings.NewReader(`{"addr":"` + addr + `"}`)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathWorkers, body))
		var e api.Error
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("register %s: %d with body %q", addr, rec.Code, rec.Body)
			}
		}
		return rec.Code, e
	}

	if code, e := register("http://last.test:9090"); code != http.StatusOK {
		t.Fatalf("the registration that fills the registry: %d %+v, want 200", code, e)
	}
	code, e := register("http://one-too-many.test:9090")
	if code != http.StatusConflict || e.API != api.Version || e.Code != code || !strings.Contains(e.Message, "full") {
		t.Errorf("a registration beyond %d workers: %d %+v, want a typed 409", maxWorkers, code, e)
	}
	for _, addr := range []string{cfg.Workers[0], "http://last.test:9090", "http://last.test:9090/"} {
		if code, e := register(addr); code != http.StatusOK {
			t.Errorf("re-registering known %s in a full registry: %d %+v, want 200", addr, code, e)
		}
	}
	if n := len(c.WorkersSnapshot()); n != maxWorkers {
		t.Errorf("registry holds %d workers, want %d", n, maxWorkers)
	}

	if _, err := New(registryConfig(t, maxWorkers+1)); err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("New with %d static workers: %v, want the registry-full error", maxWorkers+1, err)
	}
}

// TestBackoffDoublesToSixteenTimes pins the retry-wave delays: the base
// before wave 1, doubling per wave, and 16x from wave 5 on.
func TestBackoffDoublesToSixteenTimes(t *testing.T) {
	c := &Coordinator{cfg: Config{RetryBackoff: 10 * time.Millisecond}}
	for wave, want := range []time.Duration{1: 10, 2: 20, 3: 40, 4: 80, 5: 160, 6: 160, 7: 160, 8: 160} {
		if wave == 0 {
			continue
		}
		if got := c.backoff(wave); got != want*time.Millisecond {
			t.Errorf("backoff(wave %d) = %v, want %v", wave, got, want*time.Millisecond)
		}
	}
}
