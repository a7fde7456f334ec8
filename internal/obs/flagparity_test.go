package obs

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// flagNameRE matches the flag names in a FlagSet's -h usage output
// ("  -obs string", "  -spans", ...).
var flagNameRE = regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)

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

// buildBinaries builds every cmd/hbat* binary and the benchmark into
// one directory shared by the tests of this package and returns it.
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
		cmd := exec.Command("go", "build", "-o", built.dir+string(filepath.Separator), "./cmd/...", "./bench")
		cmd.Dir = root
		built.out, built.err = cmd.CombinedOutput()
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

// docFlagRE matches a -flag or --flag token on a command line.
var docFlagRE = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)

// docs are the user-facing docs whose commands must stay runnable.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md", "docs/WORKLOADS.md"}

// readDoc returns the text of a doc named relative to the repo root.
func readDoc(t *testing.T, doc string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("../..", doc))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDocsNameOnlyLiveFlags: every command the docs show — `go run
// ./cmd/<bin>`, `go run ./bench` or a bare `hbat…` line, in a fenced
// block (backslash continuations joined, # comments dropped) or an
// inline code span — names only flags that binary, or that hbat-trace
// subcommand, lists in its -h output, so a removed flag cannot live on
// in an example.
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
	seen := map[string]int{}
	for _, doc := range docs {
		for _, cmd := range docCommands(readDoc(t, doc)) {
			bin, args := invocation(cmd)
			if _, err := os.Stat(filepath.Join(dir, bin)); bin == "" || err != nil {
				continue
			}
			seen[bin]++
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
					t.Errorf("%s: `%s` names -%s, which %s %s -h does not list", doc, cmd, m[1], bin, sub)
				}
			}
		}
	}
	if seen["hbat"] == 0 || seen["bench"] == 0 {
		t.Fatalf("commands found per binary: %v; want hbat and bench among them", seen)
	}
}

// WorkerFamilies and CoordinatorFamilies are every family /metrics
// exports in each hbatd role, sorted: the worker's once it has run a
// job, the coordinator's once it has dispatched one.
// TestFamiliesPerRole pins them against live scrapes; hbat-experiments
// -obs exports the worker's hbat_obs_*, hbat_process_* and
// hbat_sweep_* families.
var (
	WorkerFamilies = []string{
		"hbat_fabric_jobs_open",
		"hbat_fabric_queue_depth",
		"hbat_fabric_request_duration_ms",
		"hbat_fabric_requests",
		"hbat_fabric_span_subscribers",
		"hbat_fabric_store_quota_bytes",
		"hbat_fabric_store_tenant_bytes",
		"hbat_obs_healthy",
		"hbat_obs_last_progress_age_seconds",
		"hbat_obs_scrapes",
		"hbat_obs_uptime_seconds",
		"hbat_process_goroutines",
		"hbat_sweep_accepting",
		"hbat_sweep_build_cache_hits",
		"hbat_sweep_build_cache_misses",
		"hbat_sweep_ckpt_cache_hits",
		"hbat_sweep_ckpt_cache_misses",
		"hbat_sweep_run_wall_ms",
		"hbat_sweep_runs_active",
		"hbat_sweep_runs_done",
		"hbat_sweep_runs_executed",
		"hbat_sweep_runs_queued",
		"hbat_sweep_spec_cache_hits",
		"hbat_sweep_spec_cache_misses",
	}
	CoordinatorFamilies = []string{
		"hbat_fabric_jobs_open",
		"hbat_fabric_request_duration_ms",
		"hbat_fabric_requests",
		"hbat_fleet_no_worker_events",
		"hbat_fleet_spec_retries",
		"hbat_fleet_specs_dispatched",
		"hbat_fleet_worker_state",
		"hbat_obs_scrapes",
		"hbat_obs_uptime_seconds",
		"hbat_process_goroutines",
	}
)

// familyRE matches a family name in prose or a command; a trailing *
// makes it a prefix.
var familyRE = regexp.MustCompile(`hbat_[a-z0-9_]+\*?`)

// TestDocsNameOnlyLiveFamilies: every hbat_… name the docs give is a
// family one of the roles exports, or with a trailing * the prefix of
// one, so a deleted family cannot live on in a walkthrough.
func TestDocsNameOnlyLiveFamilies(t *testing.T) {
	live := append(slices.Clone(WorkerFamilies), CoordinatorFamilies...)
	named := 0
	for _, doc := range docs {
		for _, tok := range familyRE.FindAllString(readDoc(t, doc), -1) {
			named++
			prefix, isPrefix := strings.CutSuffix(tok, "*")
			ok := slices.ContainsFunc(live, func(f string) bool {
				return f == tok || isPrefix && strings.HasPrefix(f, prefix)
			})
			if !ok {
				t.Errorf("%s names %s, which no role exports", doc, tok)
			}
		}
	}
	if named == 0 {
		t.Fatal("the docs name no family")
	}
}

// invocation splits a doc command into the binary it runs and its
// arguments: `go run ./cmd/<bin> ...`, `go run ./bench ...`, or a
// command line that starts with the binary's name.
func invocation(cmd string) (string, []string) {
	if i := strings.Index(cmd, "go run ./"); i >= 0 {
		cmd = strings.TrimPrefix(cmd[i+len("go run ./"):], "cmd/")
	} else if cmd = strings.TrimPrefix(cmd, "./"); !strings.HasPrefix(cmd, "hbat") {
		return "", nil
	}
	f := strings.Fields(cmd)
	if len(f) == 0 {
		return "", nil
	}
	return f[0], f[1:]
}

// retired names binaries and flags that are gone; only the migration
// notes for hbatc (the paragraphs giving `s/hbatc/hbatd/`) may name one.
var retiredRE = regexp.MustCompile(`(^|[^a-z-])(hbatc|hbat-bench-sweep|hbat-missrates|hbat-report|promcheck)($|[^a-z-])`)

func TestDocsNameNoRetiredBinaryOrFlag(t *testing.T) {
	for _, doc := range docs {
		for _, para := range strings.Split(readDoc(t, doc), "\n\n") {
			if m := retiredRE.FindStringSubmatch(para); m != nil && !strings.Contains(para, "s/hbatc/hbatd/") {
				t.Errorf("%s names %q, which no longer exists:\n%s", doc, m[2], para)
			}
		}
	}
}

// inlineCodeRE matches an inline code span.
var inlineCodeRE = regexp.MustCompile("`([^`]+)`")

// docCommands returns every command line inside a ``` fence of a
// markdown text, continuations joined and comments dropped, and every
// inline code span outside the fences.
func docCommands(text string) []string {
	var cmds []string
	var fenced bool
	var cur string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, cur = !fenced, ""
			continue
		}
		if !fenced {
			for _, m := range inlineCodeRE.FindAllStringSubmatch(line, -1) {
				cmds = append(cmds, m[1])
			}
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		cur += " " + strings.TrimSuffix(line, `\`)
		if !strings.HasSuffix(line, `\`) {
			cmds = append(cmds, strings.TrimSpace(cur))
			cur = ""
		}
	}
	return cmds
}
