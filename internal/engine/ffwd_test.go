package engine

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

// ffwdSpec is the base two-phase spec the sweep tests vary.
func ffwdSpec(design string) RunSpec {
	return RunSpec{
		Workload: "compress", Design: design, Budget: prog.Budget32,
		Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
		FastForward: 10000,
	}
}

// TestSweepSharesCheckpoint: one functional warm-up must serve every
// design in a grid — that is the point of keeping the checkpoint
// design-independent.
func TestSweepSharesCheckpoint(t *testing.T) {
	e := New()
	designs := []string{"T4", "M8", "I4", "P8"}
	for _, d := range designs {
		res := e.Run(context.Background(), ffwdSpec(d))
		if res.Err != nil {
			t.Fatalf("%s: %v", d, res.Err)
		}
		if res.Stats.FastForwarded != 10000 {
			t.Fatalf("%s: FastForwarded = %d, want 10000", d, res.Stats.FastForwarded)
		}
	}
	cs := e.CacheStats()
	if cs.CkptMisses != 1 || cs.CkptHits != uint64(len(designs)-1) {
		t.Fatalf("checkpoint cache: %d misses, %d hits; want 1 build shared by %d designs",
			cs.CkptMisses, cs.CkptHits, len(designs))
	}
}

// newWithCkptDir returns a fresh engine persisting checkpoints in dir.
func newWithCkptDir(t *testing.T, dir string) *Engine {
	t.Helper()
	e := New()
	if err := e.SetCheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCheckpointDirPersistence: a second engine pointed at the same
// CkptDir must load the warmed checkpoint instead of rebuilding it, and
// a corrupted file must be rebuilt, not trusted.
func TestCheckpointDirPersistence(t *testing.T) {
	dir := t.TempDir()
	spec := ffwdSpec("T4")

	e1 := newWithCkptDir(t, dir)
	if res := e1.Run(context.Background(), spec); res.Err != nil {
		t.Fatal(res.Err)
	}
	if cs := e1.CacheStats(); cs.CkptMisses != 1 || cs.CkptHits != 0 {
		t.Fatalf("first engine: %+v, want one build", cs)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files on disk: %v (err %v), want exactly one", files, err)
	}

	e2 := newWithCkptDir(t, dir)
	r2 := e2.Run(context.Background(), spec)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if cs := e2.CacheStats(); cs.CkptHits != 1 || cs.CkptMisses != 0 {
		t.Fatalf("second engine: %+v, want a disk hit and no build", cs)
	}

	// Corrupt the file: the next engine must detect it (checksum) and
	// rebuild rather than restore garbage state.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := newWithCkptDir(t, dir)
	r3 := e3.Run(context.Background(), spec)
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if cs := e3.CacheStats(); cs.CkptMisses != 1 || cs.CkptHits != 0 {
		t.Fatalf("corrupt file engine: %+v, want a rebuild", cs)
	}

	// Every path must agree on the simulation outcome.
	if r2.Stats != r3.Stats {
		t.Fatal("disk-restored and rebuilt checkpoints produced different stats")
	}
}
