package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// mergedFlags is every flag hbatd or the former coordinator binary
// registered before the two became one: the merge moved the
// coordinator's across verbatim, so renaming the binary is the whole
// migration, and added none.
var mergedFlags = []string{
	// both
	"addr", "data-dir", "store-mem", "store-disk", "tenant-quota-bytes",
	"tenant-jobs", "max-specs", "drain-timeout",
	"obs", "log-level", "log-format", "obs-watchdog", "spans", "spans-out",
	// hbatd
	"workers", "ckpt-dir",
	// the coordinator binary
	"worker", "probe-every", "probe-timeout", "down-after",
	"request-timeout", "batch-timeout", "retry-max", "retry-backoff",
}

var hbatd string // the binary under test, built once by TestMain

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hbatd-test")
	if err != nil {
		panic(err)
	}
	hbatd = filepath.Join(dir, "hbatd")
	out, err := exec.Command("go", "build", "-o", hbatd, ".").CombinedOutput()
	if err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes hbatd to exit and returns its exit code and stderr. Every
// case here is refused before a listener opens.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(hbatd, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("hbatd %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

func TestFlagSetIsTheUnionOfTheTwoDaemons(t *testing.T) {
	_, usage := run(t, "-h")
	var have []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(usage, -1) {
		have = append(have, m[1])
	}
	want := append([]string(nil), mergedFlags...)
	sort.Strings(want)
	sort.Strings(have)
	if strings.Join(have, " ") != strings.Join(want, " ") {
		t.Errorf("hbatd -h lists\n  %v\nwant the union of the old worker and coordinator binaries' sets\n  %v", have, want)
	}
}

// TestEngineFlagsRefusedBesideWorker: -worker makes the process a
// coordinator, which builds no engine; an engine-side flag set next to
// it is a usage error naming both, not a silently ignored knob.
func TestEngineFlagsRefusedBesideWorker(t *testing.T) {
	for _, engineFlag := range [][]string{{"-ckpt-dir", t.TempDir()}, {"-workers", "8"}} {
		args := append([]string{"-addr", "127.0.0.1:0", "-worker", "http://127.0.0.1:1"}, engineFlag...)
		code, stderr := run(t, args...)
		if code != 2 || !strings.Contains(stderr, engineFlag[0]) || !strings.Contains(stderr, "-worker") {
			t.Errorf("hbatd %v: exit %d, stderr %q; want exit 2 naming %s and -worker", args, code, stderr, engineFlag[0])
		}
	}
}

func TestWorkerMustBeABaseURL(t *testing.T) {
	code, stderr := run(t, "-worker", "ftp://x")
	if code != 2 || !strings.Contains(stderr, `worker "ftp://x": want a base URL like http://host:9090`) {
		t.Errorf("hbatd -worker ftp://x: exit %d, stderr %q; want the flag refused with exit 2", code, stderr)
	}
}
