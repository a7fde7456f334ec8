package ckpt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/build_digest.json")

// TestBuildDigest pins the bytes of built checkpoints across commits
// (testdata/build_digest.json). The battery against the reference
// interpreter cannot see a warm-stream bug the two share — both go
// through notePage and snapshot — so a change to how the distinct-page
// stream is kept must leave these digests untouched. No test-scale
// workload touches more than DefaultWarmCap pages, so one case forces a
// warmCap of 8 to exercise the cap. Regenerate only for a
// deliberate change to what a checkpoint holds:
//
//	go test ./internal/ckpt/ -run TestBuildDigest -update
func TestBuildDigest(t *testing.T) {
	path := filepath.Join("testdata", "build_digest.json")
	cases := []struct {
		workload string
		warmCap  int
	}{
		{"compress", 0},
		{"perl", 0},
		{"mpeg_play", 8},
	}
	got := make(map[string]string)
	for _, tc := range cases {
		w, err := workload.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Build(prog.Budget32, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		for _, ff := range []uint64{5_000, 20_000} {
			cfg := testBuildConfig(ff)
			cfg.warmCap = tc.warmCap
			c, err := Build(context.Background(), p, cfg)
			if err != nil {
				t.Fatalf("%s ff %d: %v", tc.workload, ff, err)
			}
			if tc.warmCap > 0 && len(c.WarmRefs) != tc.warmCap {
				t.Errorf("%s ff %d: %d warm refs, want the cap %d to bind", tc.workload, ff, len(c.WarmRefs), tc.warmCap)
			}
			sum := sha256.Sum256(c.Encode())
			got[fmt.Sprintf("%s/ffwd=%d/warmcap=%d", tc.workload, ff, tc.warmCap)] = hex.EncodeToString(sum[:])
		}
	}
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
		t.Fatalf("corrupt build digest: %v", err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: checkpoint digest %s, want %s", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("build_digest.json has %d entries, the test builds %d (run with -update)", len(want), len(got))
	}
}
