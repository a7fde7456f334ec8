package obs

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// flagNameRE matches the flag names in a FlagSet's -h usage output
// ("  -obs string", "  -spans", ...).
var flagNameRE = regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)

// binNames are the cmd/hbat* binaries built once per test process.
var binNames = []string{"hbat", "hbat-experiments", "hbat-trace", "hbatd"}

var built struct {
	once sync.Once
	dir  string
	err  error
	out  []byte
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// buildBinaries builds every cmd/hbat* binary into one directory shared
// by the tests of this package and returns it.
func buildBinaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds every binary")
	}
	built.once.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			built.err = err
			return
		}
		if built.dir, built.err = os.MkdirTemp("", "hbat-bins-"); built.err != nil {
			return
		}
		for _, b := range binNames {
			cmd := exec.Command("go", "build", "-o", filepath.Join(built.dir, b), "./cmd/"+b)
			cmd.Dir = root
			if built.out, built.err = cmd.CombinedOutput(); built.err != nil {
				return
			}
		}
	})
	if built.err != nil {
		t.Fatalf("build: %v\n%s", built.err, built.out)
	}
	return built.dir
}

// usageFlags runs bin with args (ending in -h) and returns the flag
// names its usage lists.
func usageFlags(dir, bin string, args ...string) (map[string]bool, string) {
	// -h prints usage and exits 0 (or 2 on older toolchains); either
	// way the flag listing is what matters.
	out, _ := exec.Command(filepath.Join(dir, bin), args...).CombinedOutput()
	have := map[string]bool{}
	for _, m := range flagNameRE.FindAllStringSubmatch(string(out), -1) {
		have[m[1]] = true
	}
	return have, string(out)
}

// TestFlagParityAcrossBinaries builds all four cmd/hbat* binaries and
// asserts each one registers the shared observability flag set — the
// contract that any binary can be pointed at the same dashboards,
// log pipelines, and span tooling. A binary that drops obs.AddFlags
// (or a rename of one of these flags) fails here, not in production.
func TestFlagParityAcrossBinaries(t *testing.T) {
	dir := buildBinaries(t)
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
	shared := []string{"obs", "log-level", "log-format", "obs-watchdog", "spans", "spans-out"}
	for _, b := range bins {
		have, out := usageFlags(dir, b.name, b.args...)
		for _, f := range shared {
			if !have[f] {
				t.Errorf("%s %v: missing shared flag -%s\nusage:\n%s", b.name, b.args, f, out)
			}
		}
	}
}

// docFlagRE matches a -flag token on a command line.
var docFlagRE = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)

// TestDocsNameOnlyLiveFlags: every `go run ./cmd/<bin> ...` command in
// the user-facing docs (fenced lines with backslash continuations joined
// and # comments dropped, and inline code spans) names only flags that
// binary, or that hbat-trace subcommand, lists in its -h output, so a
// removed flag cannot live on in an example.
func TestDocsNameOnlyLiveFlags(t *testing.T) {
	dir := buildBinaries(t)
	usage := map[string]map[string]bool{}
	flagsOf := func(bin, sub string) map[string]bool {
		k := bin + " " + sub
		if usage[k] == nil {
			args := []string{"-h"}
			if sub != "" {
				args = []string{sub, "-h"}
			}
			usage[k], _ = usageFlags(dir, bin, args...)
		}
		return usage[k]
	}
	lines := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md"} {
		for _, cmd := range docGoRuns(t, filepath.Join("../..", doc)) {
			lines++
			fields := strings.Fields(cmd)
			bin := strings.TrimPrefix(fields[0], "./cmd/")
			args := fields[1:]
			sub := ""
			if bin == "hbat-trace" && len(args) > 0 {
				sub, args = args[0], args[1:]
			}
			have := flagsOf(bin, sub)
			for _, a := range args {
				if strings.ContainsAny(a[:1], "|&;>") {
					break // the rest belongs to the shell
				}
				if m := docFlagRE.FindStringSubmatch(a); m != nil && !have[m[1]] {
					t.Errorf("%s: `go run %s` names -%s, which %s %s -h does not list", doc, cmd, m[1], bin, sub)
				}
			}
		}
	}
	if lines == 0 {
		t.Fatal("found no go run commands in the docs")
	}
}

// inlineGoRunRE matches a `go run ./cmd/...` inline code span.
var inlineGoRunRE = regexp.MustCompile("`go run (\\./cmd/[^`]*)`")

// docGoRuns returns what follows "go run " in every command of the
// markdown file at path: each command line inside a ``` fence,
// continuations joined and comments dropped, and each inline code span.
func docGoRuns(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cmds []string
	var fenced bool
	var cur string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, cur = !fenced, ""
			continue
		}
		if !fenced {
			for _, m := range inlineGoRunRE.FindAllStringSubmatch(line, -1) {
				cmds = append(cmds, m[1])
			}
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		cont := strings.HasSuffix(line, `\`)
		cur += " " + strings.TrimSuffix(line, `\`)
		if cont {
			continue
		}
		if i := strings.Index(cur, "go run ./cmd/"); i >= 0 {
			cmds = append(cmds, strings.TrimSpace(cur[i+len("go run "):]))
		}
		cur = ""
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cmds
}
