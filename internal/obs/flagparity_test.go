package obs

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// flagNameRE matches the flag names in a FlagSet's -h usage output
// ("  -obs string", "  -spans", ...).
var flagNameRE = regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)

// TestFlagParityAcrossBinaries builds all four cmd/hbat* binaries and
// asserts each one registers the shared observability flag set — the
// contract that any binary can be pointed at the same dashboards,
// log pipelines, and span tooling. A binary that drops obs.AddFlags
// (or a rename of one of these flags) fails here, not in production.
func TestFlagParityAcrossBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	// hbat-trace registers the shared set per subcommand; capture
	// stands in for all four.
	bins := []struct {
		name string
		args []string
	}{
		{"hbat", []string{"-h"}},
		{"hbat-experiments", []string{"-h"}},
		{"hbat-trace", []string{"capture", "-h"}},
		{"hbatd", []string{"-h"}},
	}
	dir := t.TempDir()
	for _, b := range bins {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, b.name), "./cmd/"+b.name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.name, err, out)
		}
	}
	shared := []string{"obs", "log-level", "log-format", "obs-watchdog", "spans", "spans-out"}
	for _, b := range bins {
		// -h prints usage and exits 0 (or 2 on older toolchains);
		// either way the flag listing is what matters.
		out, _ := exec.Command(filepath.Join(dir, b.name), b.args...).CombinedOutput()
		have := map[string]bool{}
		for _, m := range flagNameRE.FindAllStringSubmatch(string(out), -1) {
			have[m[1]] = true
		}
		for _, f := range shared {
			if !have[f] {
				t.Errorf("%s %v: missing shared flag -%s\nusage:\n%s", b.name, b.args, f, out)
			}
		}
	}
}
