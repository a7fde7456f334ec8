package transport

import (
	"context"
	"net/http/httptest"
	"testing"

	"hbat/api"
	"hbat/internal/engine"
)

// TestSameKeyInFlightSimulatesOnce pins the pool's store lookup at
// pickup, the one for a key stored between intake and pickup. Every
// copy of the key is admitted while the engine is held, so intake finds
// none of them stored and all of them queue on the key's one shard. Two
// in-flight jobs on one key, and one job that carries a key twice, each
// cost the engine exactly one simulation, and every spec ends done with
// the one SHA-256.
func TestSameKeyInFlightSimulatesOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs [][]api.SimOptions
	}{
		{"two jobs", [][]api.SimOptions{{testSpec(1)}, {testSpec(1)}}},
		{"one job twice", [][]api.SimOptions{{testSpec(1), testSpec(1)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			eng := engine.New()
			svc, err := New(Config{Engine: eng, Store: memStore(t), Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			hold := make(chan struct{})
			svc.pool.run = func(ctx context.Context, spec engine.RunSpec) engine.RunResult {
				<-hold
				return eng.Run(ctx, spec)
			}
			h := svc.Handler()
			ts := httptest.NewServer(h)
			defer ts.Close()
			defer svc.Shutdown(ctx)

			var ids []string
			for _, specs := range tc.jobs {
				ids = append(ids, submitSpecs(t, h, specs...).ID)
			}
			close(hold)

			c := api.NewClient(ts.URL)
			sha := ""
			for _, id := range ids {
				js, err := c.Wait(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range js.Specs {
					if sha == "" {
						sha = s.SHA256
					}
					if s.State != api.StateDone || s.SHA256 == "" || s.SHA256 != sha {
						t.Errorf("job %s spec = %+v, want done with sha %.12s", id, s, sha)
					}
				}
			}
			if n := eng.State().Executed; n != 1 {
				t.Errorf("the engine simulated the key %d times, want 1", n)
			}
		})
	}
}
