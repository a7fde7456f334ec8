package pipetrace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hbat/internal/isa"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenTrace hand-builds a small deterministic event stream covering
// the interesting shapes: a plain ALU op, a load that misses the TLB
// and walks, a load rejected for a port then missing the cache, a store
// retried at commit, and a squashed wrong-path instruction.
func goldenTrace() *Recorder {
	r := New(Config{Cap: 256})
	ld := &isa.Inst{Op: isa.Ld, Rd: isa.Reg(8), Rs: isa.Reg(9), Imm: 16}
	add := &isa.Inst{Op: isa.Add, Rd: isa.Reg(10), Rs: isa.Reg(8), Rt: isa.Reg(9)}
	st := &isa.Inst{Op: isa.Sd, Rd: isa.Reg(10), Rs: isa.Reg(9), Imm: 24}

	// seq 0: ALU op, uneventful.
	r.Emit(0, 1, KFetch, 0x400000, add, 0)
	r.Emit(0, 2, KDispatch, 0x400000, add, 1)
	r.Emit(0, 3, KIssue, 0x400000, add, 1)
	r.Emit(0, 4, KComplete, 0x400000, add, 0)
	r.Emit(0, 5, KCommit, 0x400000, add, 0)

	// seq 1: load, TLB miss, 30-cycle walk, then a cache miss.
	r.Emit(1, 1, KFetch, 0x400004, ld, 0)
	r.Emit(1, 2, KDispatch, 0x400004, ld, 2)
	r.Emit(1, 3, KIssue, 0x400004, ld, 1)
	r.Emit(1, 4, KTLBMiss, 0x400004, ld, 0)
	r.Emit(1, 6, KWalkStart, 0x400004, ld, 30)
	r.Emit(1, 36, KWalkEnd, 0x400004, ld, 30)
	r.Emit(1, 37, KTLBHit, 0x400004, ld, 0)
	r.Emit(1, 37, KDCacheMiss, 0x400004, ld, 18)
	r.Emit(1, 37, KComplete, 0x400004, ld, 19)
	r.Emit(1, 56, KCommit, 0x400004, ld, 0)

	// seq 2: load, port-starved twice, then hits.
	r.Emit(2, 2, KFetch, 0x400008, ld, 0)
	r.Emit(2, 3, KDispatch, 0x400008, ld, 3)
	r.Emit(2, 4, KIssue, 0x400008, ld, 1)
	r.Emit(2, 5, KTLBNoPort, 0x400008, ld, 0)
	r.Emit(2, 6, KTLBNoPort, 0x400008, ld, 0)
	r.Emit(2, 7, KTLBHit, 0x400008, ld, 1)
	r.Emit(2, 7, KDCacheHit, 0x400008, ld, 0)
	r.Emit(2, 7, KComplete, 0x400008, ld, 2)
	r.Emit(2, 57, KCommit, 0x400008, ld, 0)

	// seq 3: store whose commit retries once for a cache port.
	r.Emit(3, 2, KFetch, 0x40000c, st, 0)
	r.Emit(3, 3, KDispatch, 0x40000c, st, 4)
	r.Emit(3, 4, KIssue, 0x40000c, st, 1)
	r.Emit(3, 5, KTLBHit, 0x40000c, st, 0)
	r.Emit(3, 5, KComplete, 0x40000c, st, 0)
	r.Emit(3, 57, KCommitRetry, 0x40000c, st, 0)
	r.Emit(3, 58, KCommit, 0x40000c, st, 0)

	// seq 4: wrong-path op squashed before completing.
	r.Emit(4, 3, KFetch, 0x400010, add, 0)
	r.Emit(4, 4, KDispatch, 0x400010, add, 5)
	r.Emit(4, 10, KSquash, 0x400010, add, 0)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch (run with -update to refresh)\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestKonataGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteKonata(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "konata.log", buf.Bytes())
}

func TestSummaryGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteSummary(&buf, 5); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.txt", buf.Bytes())
}

func TestSummaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Config{Cap: 4}).WriteSummary(&buf, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("no events recorded")) {
		t.Errorf("empty summary = %q", buf.String())
	}
}

func TestPerfettoGoldenShape(t *testing.T) {
	// The Perfetto export is validated structurally (valid JSON, track
	// metadata, spans) in the root package against a real simulation;
	// here just pin that the synthetic trace round-trips deterministically.
	var a, b bytes.Buffer
	if err := goldenTrace().WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenTrace().WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Perfetto export is not deterministic")
	}
	if a.Len() == 0 {
		t.Error("Perfetto export is empty")
	}
}
