package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hbat/internal/ckpt"
	"hbat/internal/prog"
	"hbat/internal/spans"
	"hbat/internal/store"
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

// newWithCkptStore returns a fresh engine keeping checkpoints in a new
// store over dir, and that store.
func newWithCkptStore(t *testing.T, cfg store.Config) (*Engine, *store.Store) {
	t.Helper()
	st, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if err := e.SetCheckpointStore(st); err != nil {
		t.Fatal(err)
	}
	return e, st
}

// tracedRun runs spec on e under a fresh span tracer and returns the
// result and the source attribute of its checkpoint span.
func tracedRun(t *testing.T, e *Engine, spec RunSpec) (RunResult, string) {
	t.Helper()
	tr := spans.New()
	e.SetSpans(tr)
	defer e.SetSpans(nil)
	res := e.Run(context.Background(), spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	cks := spansByName(tr)["checkpoint"]
	if len(cks) != 1 {
		t.Fatalf("%d checkpoint spans, want 1", len(cks))
	}
	return res, cks[0].Attrs["source"]
}

// encodedCheckpoint returns the encoding of the checkpoint e holds in
// memory for spec; it fails the test rather than build one.
func encodedCheckpoint(t *testing.T, e *Engine, spec RunSpec) []byte {
	t.Helper()
	c, err, hit := e.ckpts.do(context.Background(), spec.ckptKey(), func() (*ckpt.Checkpoint, error) {
		return nil, errors.New("checkpoint not resident")
	}, nil)
	if err != nil || !hit {
		t.Fatalf("checkpoint for %s: hit=%v err=%v", spec, hit, err)
	}
	return c.Encode()
}

// TestCheckpointDirPersistence: a second engine over a second store on
// the same directory serves the warmed checkpoint from disk instead of
// rebuilding it, byte for byte, and a blob with one flipped byte is
// counted corrupt and rebuilt, not trusted. Every path agrees on the
// simulation outcome.
func TestCheckpointDirPersistence(t *testing.T) {
	dir := t.TempDir()
	spec := ffwdSpec("T4")

	e1, _ := newWithCkptStore(t, store.Config{Dir: dir})
	r1, src := tracedRun(t, e1, spec)
	if cs := e1.CacheStats(); src != "build" || cs.CkptMisses != 1 || cs.CkptHits != 0 {
		t.Fatalf("first engine: source=%s %+v, want one build", src, cs)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store files on disk: %v (err %v), want exactly one", files, err)
	}

	e2, _ := newWithCkptStore(t, store.Config{Dir: dir})
	r2, src := tracedRun(t, e2, spec)
	if cs := e2.CacheStats(); src != "disk" || cs.CkptHits != 1 || cs.CkptMisses != 0 {
		t.Fatalf("second engine: source=%s %+v, want a disk hit and no build", src, cs)
	}
	if !bytes.Equal(encodedCheckpoint(t, e1, spec), encodedCheckpoint(t, e2, spec)) {
		t.Fatal("the restored checkpoint encodes differently from the built one")
	}

	// Flip one byte of the blob: the store must count it corrupt and
	// the engine rebuild rather than restore garbage state.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	e3, st3 := newWithCkptStore(t, store.Config{Dir: dir})
	r3, src := tracedRun(t, e3, spec)
	if cs := e3.CacheStats(); src != "build" || cs.CkptMisses != 1 || cs.CkptHits != 0 {
		t.Fatalf("corrupt blob engine: source=%s %+v, want a rebuild", src, cs)
	}
	if c := st3.Stats().Corrupt; c != 1 {
		t.Fatalf("store counted %d corrupt files, want 1", c)
	}
	if !bytes.Equal(encodedCheckpoint(t, e1, spec), encodedCheckpoint(t, e3, spec)) {
		t.Fatal("the rebuilt checkpoint encodes differently from the first")
	}

	if r1.Stats != r2.Stats || r1.Stats != r3.Stats {
		t.Fatal("built, disk-restored and rebuilt checkpoints produced different stats")
	}
}

// TestCheckpointStoreDiskBudget: checkpoints at many fast-forward
// depths under a disk budget that holds about four of them stay within
// it, the store's LRU evicting the oldest.
func TestCheckpointStoreDiskBudget(t *testing.T) {
	spec := ffwdSpec("T4")
	spec.MaxInsts = 1000
	probe, st := newWithCkptStore(t, store.Config{Dir: t.TempDir()})
	if res := probe.Run(context.Background(), spec); res.Err != nil {
		t.Fatal(res.Err)
	}
	budget := st.Stats().DiskBytes * 9 / 2

	e, st := newWithCkptStore(t, store.Config{Dir: t.TempDir(), DiskBytes: budget})
	const depths = 12
	for i := 1; i <= depths; i++ {
		spec.FastForward = uint64(i) * 2000
		if res := e.Run(context.Background(), spec); res.Err != nil {
			t.Fatalf("ffwd %d: %v", spec.FastForward, res.Err)
		}
		if got := st.Stats().DiskBytes; got > budget {
			t.Fatalf("after ffwd %d: DiskBytes %d over the %d budget", spec.FastForward, got, budget)
		}
	}
	if ss := st.Stats(); ss.DiskEvictions == 0 || ss.Entries >= depths {
		t.Fatalf("store after %d depths: %+v, want disk evictions", depths, ss)
	}
	if cs := e.CacheStats(); cs.CkptMisses != depths {
		t.Fatalf("engine: %+v, want one build per depth", cs)
	}
}
