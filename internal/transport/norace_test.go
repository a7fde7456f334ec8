//go:build !race

package transport

// Allocation counts: the race detector's sync.Pool drops entries at
// random, so these hold only without it.

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBlockingStatusForAFinishedJobArmsNoTimer: a finished job is
// answered on the plain path whatever wait says — the only extra
// allocations over a request without wait are the query parse's.
func TestBlockingStatusForAFinishedJobArmsNoTimer(t *testing.T) {
	h := NewFront(Config{Store: memStore(t)}, &stubExec{}).Handler()
	acc := submitTo(t, h)
	serve := func(query string) func() {
		req := httptest.NewRequest(http.MethodGet, acc.StatusURL+query, nil)
		return func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status%s: %d %s", query, rec.Code, rec.Body)
			}
		}
	}
	// The reference pays for the same query parse and asks for no hold.
	parsed := testing.AllocsPerRun(200, serve("?hold=30s"))
	waiting := testing.AllocsPerRun(200, serve("?wait=30s"))
	if waiting > parsed {
		t.Errorf("status of a finished job: %v allocs with ?wait=30s, %v with ?hold=30s (no wait, same parse)", waiting, parsed)
	}
	if plain := testing.AllocsPerRun(200, serve("")); plain > parsed {
		t.Errorf("status without a query: %v allocs, more than the %v with one", plain, parsed)
	}
}
