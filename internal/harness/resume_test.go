package harness

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbat/internal/engine"
	"hbat/internal/workload"
)

// resumeOpts is the reduced grid the resume test sweeps.
func resumeOpts(e *engine.Engine) Options {
	return Options{
		Scale: workload.ScaleTest, Seed: 1, Engine: e,
		Workloads: []string{"compress", "espresso"},
		Designs:   []string{"T4", "T1", "M8"},
		// Two-phase, to cover checkpoint interplay with the journal.
		FastForward: 5000,
	}
}

// figureCSV renders Figure 5 for opts and returns the CSV bytes — the
// artifact the resume contract promises to reproduce byte-for-byte.
func figureCSV(t *testing.T, opts Options) string {
	t.Helper()
	f, err := Figure5(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FigureCSV(&sb, f)
	return sb.String()
}

// TestResumeJournalByteIdentical simulates a sweep killed mid-run: the
// journal holds a prefix of the completed runs, and a fresh engine
// resuming from it must (a) not re-simulate the journaled specs and
// (b) render byte-identical artifacts.
func TestResumeJournalByteIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")

	e1 := engine.New()
	if n, err := e1.SetJournal(path); err != nil || n != 0 {
		t.Fatalf("fresh journal: resumed %d, err %v", n, err)
	}
	want := figureCSV(t, resumeOpts(e1))
	total := int(e1.State().Executed)
	if total == 0 {
		t.Fatal("no runs executed")
	}

	// "Kill" the sweep partway: keep only the first half of the journal
	// lines, and append a torn partial record as a crash would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal too small to truncate meaningfully: %d lines", len(lines))
	}
	keep := len(lines) / 2
	torn := strings.Join(lines[:keep], "") + `{"spec_hash":"dead`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := engine.New()
	n, err := e2.SetJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != keep {
		t.Fatalf("resumed %d journaled runs, want %d (torn tail dropped)", n, keep)
	}
	got := figureCSV(t, resumeOpts(e2))
	if got != want {
		t.Fatalf("resumed sweep rendered different CSV:\n got: %q\nwant: %q", got, want)
	}
	if exec := int(e2.State().Executed); exec != total-keep {
		t.Fatalf("resumed sweep executed %d runs, want %d (=%d total - %d journaled)",
			exec, total-keep, total, keep)
	}

	// The resumed process must have re-journaled the remaining runs: a
	// third resume serves everything without simulating.
	e3 := engine.New()
	if n, err := e3.SetJournal(path); err != nil || n != total {
		t.Fatalf("final journal: resumed %d, err %v, want %d", n, err, total)
	}
	if got := figureCSV(t, resumeOpts(e3)); got != want {
		t.Fatal("fully journaled sweep rendered different CSV")
	}
	if exec := e3.State().Executed; exec != 0 {
		t.Fatalf("fully journaled sweep executed %d runs, want 0", exec)
	}
}
