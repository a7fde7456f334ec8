package obs

// Tests of the built binaries as real processes, for what only a
// process can show: flag wiring, the files flags write, signals, exit
// codes and the log records an operator reads. What a handler answers
// is tested in-process next to the handler.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hbat/api"
)

// proc is a started binary; the test reads its stderr as it arrives.
type proc struct {
	cmd    *exec.Cmd
	stderr syncBuffer
}

// start runs bin in dir (empty: the test's own directory); the test's
// cleanup kills it if the test has not stopped it.
func start(t *testing.T, dir, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(filepath.Join(buildBinaries(t), bin), args...)}
	p.cmd.Dir, p.cmd.Stderr = dir, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// stop sends sig (nil: none) and returns the exit code once the
// process has exited; -1 means a signal ended it.
func (p *proc) stop(sig os.Signal) int {
	if sig != nil {
		p.cmd.Process.Signal(sig)
	}
	p.cmd.Wait()
	return p.cmd.ProcessState.ExitCode()
}

// run executes bin in dir to exit and returns its exit code and stderr.
func run(t *testing.T, dir, bin string, args ...string) (int, string) {
	t.Helper()
	p := start(t, dir, bin, args...)
	return p.stop(nil), p.stderr.String()
}

// await returns the first JSON log record with message msg whose
// attributes include want, waiting up to 30 s for it.
func (p *proc) await(t *testing.T, msg string, want map[string]any) map[string]any {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
	next:
		for _, line := range strings.Split(p.stderr.String(), "\n") {
			var r map[string]any
			if json.Unmarshal([]byte(line), &r) != nil || r["msg"] != msg {
				continue
			}
			for k, v := range want {
				if r[k] != v {
					continue next
				}
			}
			return r
		}
	}
	t.Fatalf("no %q record with %v in:\n%s", msg, want, p.stderr.String())
	return nil
}

// url waits for the listener record msg and returns its base URL.
func (p *proc) url(t *testing.T, msg string) string {
	t.Helper()
	return "http://" + p.await(t, msg, nil)["addr"].(string)
}

// scrape fetches base/metrics, which must parse as exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if _, perr := ParseExposition(bytes.NewReader(body)); err != nil || perr != nil {
		t.Errorf("%s/metrics: %v %v", base, err, perr)
	}
	return string(body)
}

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

func TestFlagSetIsTheUnionOfTheTwoDaemons(t *testing.T) {
	flags, usage := usageFlags(buildBinaries(t), "hbatd", "-h")
	var have []string
	for f := range flags {
		have = append(have, f)
	}
	want := append([]string(nil), mergedFlags...)
	sort.Strings(want)
	sort.Strings(have)
	if strings.Join(have, " ") != strings.Join(want, " ") {
		t.Errorf("hbatd -h lists\n  %v\nwant the union of the old worker and coordinator binaries' sets\n%s", have, usage)
	}
}

// TestEngineFlagsRefusedBesideWorker: -worker makes the process a
// coordinator, which builds no engine; an engine-side flag set next to
// it is a usage error naming both, not a silently ignored knob.
func TestEngineFlagsRefusedBesideWorker(t *testing.T) {
	for _, engineFlag := range [][]string{{"-ckpt-dir", t.TempDir()}, {"-workers", "8"}} {
		args := append([]string{"-addr", "127.0.0.1:0", "-worker", "http://127.0.0.1:1"}, engineFlag...)
		code, stderr := run(t, "", "hbatd", args...)
		if code != 2 || !strings.Contains(stderr, engineFlag[0]) || !strings.Contains(stderr, "-worker") {
			t.Errorf("hbatd %v: exit %d, stderr %q; want exit 2 naming %s and -worker", args, code, stderr, engineFlag[0])
		}
	}
}

func TestWorkerMustBeABaseURL(t *testing.T) {
	code, stderr := run(t, "", "hbatd", "-worker", "ftp://x")
	if code != 2 || !strings.Contains(stderr, `worker "ftp://x": want a base URL like http://host:9090`) {
		t.Errorf("hbatd -worker ftp://x: exit %d, stderr %q; want the flag refused with exit 2", code, stderr)
	}
}

// TestHbatOutputFiles: the files hbat's -trace, -interval-csv and
// -spans-out write are there and parse.
func TestHbatOutputFiles(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-workload", "compress", "-scale", "test", "-design", "I4"}
	for _, args := range [][]string{
		{"-trace", "t.json", "-trace-format", "perfetto", "-trace-summary",
			"-interval-csv", "i.csv", "-interval", "500", "-progress", "-spans", "-spans-out", "s"},
		{"-trace", "t.konata", "-trace-format", "konata"},
	} {
		if code, stderr := run(t, dir, "hbat", append(base, args...)...); code != 0 {
			t.Fatalf("hbat %v: exit %d\n%s", args, code, stderr)
		}
	}
	const perfetto = `{"displayTimeUnit":"ms","traceEvents":[`
	for name, prefix := range map[string]string{
		"t.json": perfetto, "s.perfetto.json": perfetto,
		"i.csv": "cycle,ipc,", "t.konata": "Kanata\t0004", "s.jsonl": `{"v":1,`,
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if strings.HasSuffix(name, ".json") && !json.Valid(data) {
			t.Errorf("%s is not JSON", name)
		}
		if !bytes.HasPrefix(data, []byte(prefix)) || bytes.Count(data, []byte("\n")) < 2 {
			t.Errorf("%s starts %.40q (%v); want %q and records after it", name, data, err, prefix)
		}
	}
}

// TestExperimentsReport runs the test-scale evaluation with the obs
// server on a free port: scrapes mid-run answer and parse, and the
// manifest hashes the report the run wrote.
func TestExperimentsReport(t *testing.T) {
	dir := t.TempDir()
	p := start(t, dir, "hbat-experiments", "-scale", "test", "-html", "report.html", "-obs", "127.0.0.1:0", "-log-format", "json")
	obsURL := p.url(t, "observability server listening")
	for _, path := range []string{"/health", "/ready"} {
		if resp, err := http.Get(obsURL + path); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("mid-run %s: %v %v", path, resp, err)
		}
	}
	scrape(t, obsURL)
	if code := p.stop(nil); code != 0 {
		t.Fatalf("hbat-experiments exit %d\n%s", code, p.stderr.String())
	}
	p.await(t, "report written", nil)
	var man struct {
		Runs      []json.RawMessage
		Artifacts []struct{ Name, SHA256 string }
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil || json.Unmarshal(data, &man) != nil || len(man.Runs) == 0 {
		t.Fatalf("manifest.json: %d runs, err %v", len(man.Runs), err)
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.html"))
	sum, hashed := sha256.Sum256(report), ""
	for _, a := range man.Artifacts {
		if a.Name == "report.html" {
			hashed = a.SHA256
		}
	}
	if err != nil || hashed != hex.EncodeToString(sum[:]) {
		t.Errorf("manifest hashes report.html as %q, the file (%v) hashes to %x", hashed, err, sum)
	}
}

// TestFleetProcesses runs two hbatd workers and an hbatd coordinator
// over them as processes. W1 is killed with SIGKILL once the
// coordinator lists it up and before the job is submitted, so its specs
// must retry on W2 and the prober must mark it down. W2's span journal
// links under the coordinator's job in hbat-trace remote's merged
// timeline, and both roles drain on SIGTERM with exit 0.
func TestFleetProcesses(t *testing.T) {
	dir := t.TempDir()
	const traceID = "aaaabbbbccccddddeeeeffff00001111"
	var workers []*proc
	var addrs []string
	for _, name := range []string{"w1", "w2"} {
		w := start(t, dir, "hbatd", "-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0", "-spans", "-spans-out", name, "-log-format", "json")
		workers = append(workers, w)
		addrs = append(addrs, w.url(t, "hbatd listening"))
	}
	coord := start(t, dir, "hbatd", "-addr", "127.0.0.1:0", "-worker", strings.Join(addrs, ","),
		"-probe-every", "250ms", "-retry-backoff", "100ms", "-spans", "-spans-out", "coord", "-log-format", "json")
	cl := api.NewClient(coord.url(t, "hbatd listening"))
	ctx := context.Background()
	// poll waits for the coordinator to list W1 in state w1 and W2 up.
	poll := func(w1 string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			fs, _ := cl.Workers(ctx)
			got := map[string]api.Worker{}
			for _, w := range fs.Workers {
				got[w.Addr] = w
			}
			if got[addrs[0]].State == w1 && got[addrs[1]].State == api.WorkerUp {
				if got[addrs[1]].Tool != "hbatd" {
					t.Errorf("W2 is up as %q, want hbatd", got[addrs[1]].Tool)
				}
				return
			}
		}
		t.Fatalf("W1 never %s beside W2 up", w1)
	}
	poll(api.WorkerUp)
	workers[0].stop(syscall.SIGKILL)

	// 16 seeds shard over both workers by rendezvous on the workers'
	// addresses: all 16 avoid W1 with probability 2^-16.
	req := api.JobRequest{Traceparent: "00-" + traceID + "-00f067aa0ba902b7-01"}
	for s := uint64(1); s <= 16; s++ {
		req.Specs = append(req.Specs, api.SimOptions{
			CommonOptions: api.CommonOptions{Scale: "test", Seed: s}, Workload: "compress", Design: "T4"})
	}
	acc, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, acc.ID)
	retried := 0
	for _, s := range st.Specs {
		if s.Attempts > 1 {
			retried++
		}
	}
	if err != nil || st.State != api.StateDone || retried == 0 {
		t.Fatalf("job %s (%v) with %d of 16 specs retried after W1's SIGKILL; want done with retries: %+v", st.State, err, retried, st.Specs)
	}
	poll(api.WorkerDown)
	scrape(t, workers[1].url(t, "observability server listening"))
	m := scrape(t, cl.Base)
	for _, want := range []string{
		`hbat_fleet_worker_state{worker="` + addrs[0] + `",state="down"} 1`,
		`hbat_fleet_specs_dispatched{worker="` + addrs[1] + `"}`,
		"hbat_fleet_spec_retries " + strconv.Itoa(retried),
	} {
		if !strings.Contains(m, want) {
			t.Errorf("coordinator /metrics lacks %q:\n%s", want, m)
		}
	}

	// Drain W2 so its journal is complete, then merge it under the
	// coordinator's journal for the job; remote fails when no worker
	// root links to a coordinator span.
	if code := workers[1].stop(syscall.SIGTERM); code != 0 {
		t.Errorf("W2 exit %d on SIGTERM, want 0", code)
	}
	workers[1].await(t, "hbatd stopped", map[string]any{"role": "worker"})
	if code, stderr := run(t, dir, "hbat-trace", "remote", "-addr", cl.Base, "-job", acc.ID,
		"-client", "w2.jsonl", "-o", "merged.json"); code != 0 {
		t.Fatalf("hbat-trace remote: exit %d\n%s", code, stderr)
	}
	merged, _ := os.ReadFile(filepath.Join(dir, "merged.json"))
	for _, name := range []string{"job", "dispatch", "retry", "run"} {
		if !bytes.Contains(merged, []byte(`"name":"`+name+`"`)) {
			t.Errorf("merged timeline has no %q span", name)
		}
	}

	// The coordinator's access log carries the submitted trace id.
	coord.await(t, "http request", map[string]any{"route": "/v1/jobs", "trace_id": traceID})
	if code := coord.stop(syscall.SIGTERM); code != 0 {
		t.Errorf("coordinator exit %d on SIGTERM, want 0", code)
	}
	coord.await(t, "hbatd stopped", map[string]any{"role": "coordinator"})
}
