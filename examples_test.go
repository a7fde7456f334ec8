package hbat

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ once and runs
// each at its default scale: it must exit 0 and print the line it
// promises.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for name, want := range map[string]*regexp.Regexp{
		"quickstart":  regexp.MustCompile(`(?m)^cycles \d+  IPC \d+\.\d+  mem/cycle `),
		"designsweep": regexp.MustCompile(`(?m)^T4 +\d+\.\d+ +100\.0% `),
		"customtlb":   regexp.MustCompile(`(?m)^I4\+V8 +IPC \d+\.\d+  cycles \d+  walks \d+$`),
		"modelfit":    regexp.MustCompile(`(?m)^  f_TOL +-?\d+\.\d+ `),
		"pagesize":    regexp.MustCompile(`(?m)^tfft +PB1 +\d+\.\d+ +\d+\.\d+ +[+-]\d+\.\d+%$`),
	} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if _, err := os.Stat(bin); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			if !want.Match(out) {
				t.Errorf("%s printed no line matching %s:\n%s", name, want, out)
			}
		})
	}
}
