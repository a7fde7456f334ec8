package ckpt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/mem"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/workload"
)

// testBuildConfig is the baseline geometry (Table 1) used by the codec
// tests.
func testBuildConfig(n uint64) BuildConfig {
	return BuildConfig{
		PageSize:    4096,
		FastForward: n,
		ICache:      cache.DefaultICache(),
		DCache:      cache.DefaultDCache(),
		Branch:      bpred.DefaultConfig(),
	}
}

// buildTestCheckpoint runs the functional phase over half of the first
// workload at test scale.
func buildTestCheckpoint(t *testing.T) (*Checkpoint, *prog.Program) {
	t.Helper()
	w := progen.Workloads()[0]
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(context.Background(), p, testBuildConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestCheckpointRoundTrip(t *testing.T) {
	c, _ := buildTestCheckpoint(t)
	data := c.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatal("decoded checkpoint differs from original")
	}
	if re := got.Encode(); !bytes.Equal(re, data) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestBuildDeterministic(t *testing.T) {
	c1, _ := buildTestCheckpoint(t)
	c2, _ := buildTestCheckpoint(t)
	if !bytes.Equal(c1.Encode(), c2.Encode()) {
		t.Fatal("two builds of the same (workload, budget, scale, ffwd) encode differently")
	}
}

// reseal recomputes the SHA-256 trailer after a deliberate payload
// mutation, so tests reach the structural checks behind the checksum.
func reseal(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

func TestDecodeRejectsMalformed(t *testing.T) {
	c, _ := buildTestCheckpoint(t)
	valid := c.Encode()

	flip := append([]byte(nil), valid...)
	flip[len(Magic)+100] ^= 0xFF

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'

	badVersion := append([]byte(nil), valid...)
	badVersion[len(Magic)] = 0xEE

	hugeCount := append([]byte(nil), valid...)
	// The page count sits right after the fixed header fields:
	// magic + version + (2 + 64 + 6 + 1) u64s.
	countOff := len(Magic) + 4 + 8*(2+64+6+1)
	for i := 0; i < 8; i++ {
		hugeCount[countOff+i] = 0xFF
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", []byte("HBAT"), ErrTruncated},
		{"bad magic", badMagic, ErrBadMagic},
		{"bit flip", flip, ErrCorrupt},
		{"truncated tail", valid[:len(valid)-7], ErrCorrupt},
		{"future version resealed", reseal(badVersion), ErrVersion},
		{"huge count resealed", reseal(hugeCount), ErrCorrupt},
		{"trailing garbage resealed", reseal(append(append([]byte(nil), valid...), 0, 1, 2)), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRestoreEmuContinues proves the checkpoint captures complete
// architectural state: a restored emulator continued to halt must reach
// exactly the state of an uninterrupted functional run.
func TestRestoreEmuContinues(t *testing.T) {
	c, p := buildTestCheckpoint(t)
	restored := c.RestoreEmu(p)
	if err := restored.Run(0); err != nil {
		t.Fatalf("continuing from checkpoint: %v", err)
	}

	ref := mustRun(t, p)
	if restored.InstCount != ref.InstCount {
		t.Fatalf("restored run retired %d insts, reference %d", restored.InstCount, ref.InstCount)
	}
	if restored.Regs != ref.Regs {
		t.Fatal("restored run's final registers differ from the reference")
	}
	if restored.PC != ref.PC || restored.Halted != ref.Halted {
		t.Fatalf("restored end state pc=0x%x halted=%v, reference pc=0x%x halted=%v",
			restored.PC, restored.Halted, ref.PC, ref.Halted)
	}
}

// TestSnapshotTakesTheBuildsFrames: the snapshot hands the build
// machine's frames to the checkpoint instead of copying them, so the
// machine's memory is empty afterwards and the snapshot of a full-scale
// checkpoint 99 % deep — ghostscript's, 2 MB of frames, the largest of
// the ten — allocates only the frame list, the page table, the tag
// arrays, the predictor and the warm stream.
func TestSnapshotTakesTheBuildsFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build")
	}
	w, err := workload.ByName("ghostscript")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testBuildConfig(depth99(t, p))
	bs, err := build(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := bs.snapshot(cfg)
	runtime.ReadMemStats(&after)

	if n := len(bs.em.Mem.ExportFrames()); n != 0 {
		t.Errorf("the build machine still holds %d frames after the snapshot", n)
	}
	const bound = 256 << 10
	frameBytes := len(c.Frames) * mem.FrameSize
	if n := after.TotalAlloc - before.TotalAlloc; n > bound {
		t.Errorf("snapshot of %d frames (%d bytes) allocated %d bytes, want at most %d", len(c.Frames), frameBytes, n, bound)
	} else {
		t.Logf("snapshot of %d frames (%d bytes) allocated %d bytes", len(c.Frames), frameBytes, n)
	}
	if frameBytes < 4*bound {
		t.Errorf("the checkpoint holds only %d bytes of frames: too small to tell a copy from a handover", frameBytes)
	}
}

func TestBuildShortProgram(t *testing.T) {
	_, p := buildTestCheckpoint(t)
	ref := mustRun(t, p)
	if _, err := Build(context.Background(), p, testBuildConfig(ref.InstCount)); !errors.Is(err, ErrShortProgram) {
		t.Fatalf("Build at program length = %v, want ErrShortProgram", err)
	}
	if _, err := Build(context.Background(), p, testBuildConfig(ref.InstCount+100)); !errors.Is(err, ErrShortProgram) {
		t.Fatalf("Build past program length = %v, want ErrShortProgram", err)
	}
}

func TestBuildCancellation(t *testing.T) {
	_, p := buildTestCheckpoint(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, p, testBuildConfig(5000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Build with cancelled context = %v, want context.Canceled", err)
	}
}
