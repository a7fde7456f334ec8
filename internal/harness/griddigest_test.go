package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hbat/internal/engine"
	"hbat/internal/workload"
)

// gridDigest is the SHA-256 over the canonical artifacts of the full
// Figure 5 grid (13 designs × 10 workloads, test scale) in figure
// order. It is the same digest `go run ./bench --workload grid-cold
// --seed N` prints as sim_digest, so the two cross-check each other.
func gridDigest(t *testing.T, seed uint64) string {
	t.Helper()
	f, err := Figure5(context.Background(), Options{Scale: workload.ScaleTest, Seed: seed, Engine: engine.New()})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, d := range f.Designs {
		for _, w := range f.Workloads {
			h.Write(engine.Artifact(engine.Wire(*f.Runs[d][w])))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGridDigest pins every simulated outcome of the Figure 5 grid,
// bit for bit, for two seeds (testdata/grid_digest.json). A cycle-core
// optimisation must leave it untouched; only a deliberate timing-model
// change regenerates it:
//
//	go test ./internal/harness/ -run TestGridDigest -update
func TestGridDigest(t *testing.T) {
	got := make(map[string]string)
	for _, seed := range []uint64{1, 2} {
		got[fmt.Sprintf("seed_%d", seed)] = gridDigest(t, seed)
	}
	checkDigests(t, "grid_digest.json", got)
}

// checkDigests compares got, digests by name, with the JSON object in
// testdata/file, or rewrites the file from got under -update.
func checkDigests(t *testing.T, file string, got map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", file, err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s %s: digest %s, want %s — a simulated outcome changed (run with -update if intentional)", file, k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s has %d digests, the test measures %d (run with -update)", file, len(want), len(got))
	}
}
