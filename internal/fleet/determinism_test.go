package fleet_test

// End-to-end determinism: the same spec must render byte-identical
// artifacts whether simulated by a local engine, a single hbatd
// worker, or a 3-worker fleet behind a coordinator — and one W3C
// trace id must thread from the submitting client through the
// coordinator into the worker engines' run records. This is the
// property that makes the coordinator transparent: an api.Client
// cannot tell (and must not care) what is on the other end.

import (
	"bytes"
	"context"
	"testing"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/fleet/fleettest"
	"hbat/internal/spans"
)

// detSpecs is the cross-tier spec set: distinct workloads and designs
// so the 3-worker fleet actually shards.
func detSpecs() []api.SimOptions {
	return []api.SimOptions{
		{CommonOptions: api.CommonOptions{Scale: "test", Seed: 1}, Workload: "compress", Design: "T4"},
		{CommonOptions: api.CommonOptions{Scale: "test", Seed: 2}, Workload: "xlisp", Design: "T2"},
		{CommonOptions: api.CommonOptions{Scale: "test", Seed: 3}, Workload: "espresso", Design: "M8"},
	}
}

// localArtifacts renders every spec through a fresh local engine — the
// ground truth the remote tiers must reproduce byte for byte.
func localArtifacts(t *testing.T, specs []api.SimOptions) map[string][]byte {
	t.Helper()
	eng := engine.New()
	out := make(map[string][]byte, len(specs))
	for _, o := range specs {
		spec, err := engine.SpecFromWire(o)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run(context.Background(), spec)
		if res.Err != nil {
			t.Fatalf("local run %s: %v", spec.String(), res.Err)
		}
		out[spec.Hash()] = engine.Artifact(engine.Wire(res))
	}
	return out
}

// fleetArtifacts submits the specs to a coordinator over n workers
// with a caller-minted traceparent and returns the fetched artifacts,
// asserting the trace id threads through to the worker engines.
func fleetArtifacts(t *testing.T, n int, specs []api.SimOptions) map[string][]byte {
	t.Helper()
	rig := fleettest.New(t, n)
	_, cl, _ := newCoord(t, rig, nil)
	ctx := context.Background()

	tc := spans.NewTraceContext()
	acc, err := cl.Submit(ctx, api.JobRequest{Specs: specs, Traceparent: tc.Traceparent()})
	if err != nil {
		t.Fatal(err)
	}
	if acc.TraceID != tc.TraceID {
		t.Errorf("%d-worker job adopted trace %s, want the client's %s", n, acc.TraceID, tc.TraceID)
	}
	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateDone {
		t.Fatalf("%d-worker job state %s: %+v", n, st.State, st.Specs)
	}
	if st.TraceID != tc.TraceID {
		t.Errorf("%d-worker job status trace %s, want %s", n, st.TraceID, tc.TraceID)
	}

	// The trace reaches the metal: some worker engine recorded a run
	// under the client's trace id (coordinator → worker → engine).
	traced := false
	for _, w := range rig.Workers {
		for _, rec := range runLog(w.Engine) {
			if rec.TraceID == tc.TraceID {
				traced = true
			}
		}
	}
	if !traced {
		t.Errorf("no worker engine run record carries the client trace id %s", tc.TraceID)
	}

	out := make(map[string][]byte, len(st.Specs))
	for _, s := range st.Specs {
		data, _, err := cl.Result(ctx, s.SpecKey)
		if err != nil {
			t.Fatalf("fetch %s from %d-worker fleet: %v", s.SpecKey, n, err)
		}
		if sha := engine.ArtifactSHA256(data); sha != s.SHA256 {
			t.Errorf("%d-worker artifact %s hashes to %s, status says %s", n, s.SpecKey, sha, s.SHA256)
		}
		out[s.SpecKey] = data
	}
	return out
}

func TestFleetDeterminismAcrossTiers(t *testing.T) {
	guardGoroutines(t)
	specs := detSpecs()
	local := localArtifacts(t, specs)
	single := fleetArtifacts(t, 1, specs)
	fleet3 := fleetArtifacts(t, 3, specs)

	if len(single) != len(local) || len(fleet3) != len(local) {
		t.Fatalf("artifact counts differ: local %d, 1-worker %d, 3-worker %d",
			len(local), len(single), len(fleet3))
	}
	for key, want := range local {
		if got, ok := single[key]; !ok || !bytes.Equal(got, want) {
			t.Errorf("spec %s: 1-worker artifact differs from local (present: %v)", key, ok)
		}
		if got, ok := fleet3[key]; !ok || !bytes.Equal(got, want) {
			t.Errorf("spec %s: 3-worker artifact differs from local (present: %v)", key, ok)
		}
	}
}

// TestFleetDialTransparency: an api.Client dialing a coordinator sees
// what it sees dialing one worker: the job carries the client's trace
// id, and the artifact is the bytes a local simulation renders.
func TestFleetDialTransparency(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 3)
	_, cl, _ := newCoord(t, rig, nil)
	ctx := context.Background()

	opts := api.SimOptions{
		CommonOptions: api.CommonOptions{Scale: "test", Seed: 4},
		Workload:      "compress", Design: "I8",
	}
	tc := spans.NewTraceContext()
	acc, err := cl.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{opts}, Traceparent: tc.Traceparent()})
	if err != nil {
		t.Fatal(err)
	}
	if acc.TraceID != tc.TraceID {
		t.Errorf("job through the coordinator has trace id %q, want the client's %q", acc.TraceID, tc.TraceID)
	}
	st, err := cl.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := cl.Result(ctx, st.Specs[0].SpecKey)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := engine.SpecFromWire(opts)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.New().Run(ctx, spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if want := engine.Artifact(engine.Wire(res)); !bytes.Equal(data, want) {
		t.Error("artifact through the coordinator differs from a local simulation")
	}
}
