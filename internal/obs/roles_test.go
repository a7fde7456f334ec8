package obs_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/fleet"
	"hbat/internal/obs"
	"hbat/internal/promtext"
	"hbat/internal/spans"
	"hbat/internal/store"
	"hbat/internal/transport"
	"hbat/internal/workload"
)

// TestFamiliesPerRole mounts both hbatd roles as cmd/hbatd does — a
// worker (engine, transport.Service, span tracer and progress
// watchdog) and a coordinator over it — runs one job through each, and
// pins the exact family list each /metrics exports and how many series
// each family may grow to. A new family, or a new label, fails here
// until it names its reader (obs.WorkerFamilies and
// obs.CoordinatorFamilies, and the docs that the docs test holds to
// them) and its bound (seriesBound).
func TestFamiliesPerRole(t *testing.T) {
	ctx := context.Background()
	const poolSize = 4 // hbatd's -workers default

	// Worker role.
	eng := engine.New()
	tracer := spans.New()
	eng.SetSpans(tracer)
	wd := obs.NewWatchdog(2 * time.Minute)
	eng.SetHeartbeat(wd.Touch)
	wst, err := store.New(store.Config{MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := transport.New(transport.Config{Engine: eng, Store: wst, Workers: poolSize, Spans: tracer})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(daemonMux(svc.Handler(), obs.Config{
		Engine: eng, Spans: tracer, Watchdog: wd, Extra: svc.MetricsFamilies,
	}))
	defer worker.Close()
	defer svc.Shutdown(ctx)
	runJob(t, worker.URL)

	// Coordinator role, over that worker.
	cst, err := store.New(store.Config{MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.New(fleet.Config{Workers: []string{worker.URL}, Store: cst})
	if err != nil {
		t.Fatal(err)
	}
	coordinator := httptest.NewServer(daemonMux(coord.Handler(), obs.Config{
		Ready: coord.Accepting, Extra: coord.MetricsFamilies,
	}))
	defer coordinator.Close()
	defer coord.Shutdown(ctx)
	runJob(t, coordinator.URL)

	for _, role := range []struct {
		name string
		base string
		want []string
	}{
		{"worker", worker.URL, obs.WorkerFamilies},
		{"coordinator", coordinator.URL, obs.CoordinatorFamilies},
	} {
		t.Run(role.name, func(t *testing.T) {
			fams := scrapeFamilies(t, role.base)
			got := slices.Sorted(maps.Keys(fams))
			if !slices.Equal(got, role.want) {
				t.Errorf("%d families:\n  %s\nwant %d:\n  %s", len(got), strings.Join(got, "\n  "),
					len(role.want), strings.Join(role.want, "\n  "))
			}
			for name, series := range fams {
				bound := 1
				for label, values := range labelValues(series) {
					b, ok := seriesBound(label, poolSize)
					if !ok {
						t.Errorf("%s: label %q has no series bound", name, label)
						continue
					}
					if allowed := allowedValues(label, poolSize); allowed != nil {
						for v := range values {
							if !slices.Contains(allowed, v) {
								t.Errorf("%s: %s=%q is outside %v", name, label, v, allowed)
							}
						}
					}
					bound *= b
				}
				if len(series) > bound {
					t.Errorf("%s: %d series, bound %d", name, len(series), bound)
				}
			}
		})
	}
	http.DefaultClient.CloseIdleConnections()
}

// daemonMux is obs.Flags.Serve's routing table: /v1/ is the role's
// job API, everything else the observability surface.
func daemonMux(v1 http.Handler, cfg obs.Config) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", v1)
	mux.Handle("/", obs.NewHandler(cfg))
	return mux
}

// runJob submits one test-scale spec to base and waits for it.
func runJob(t *testing.T, base string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := api.NewClient(base)
	acc, err := cl.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{{
		CommonOptions: api.CommonOptions{Scale: "test"}, Workload: "compress", Design: "T4",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("job %s: %+v", acc.ID, st)
	}
}

// seriesBound is how many values a label may take in one family; a
// family's series are bounded by the product over its labels.
func seriesBound(label string, poolSize int) (int, bool) {
	switch label {
	case "tenant":
		return 64 + 1, true // transport's per-process cap, plus "other"
	case "worker":
		return 256, true // fleet's registry cap
	}
	if v := allowedValues(label, poolSize); v != nil {
		return len(v), true
	}
	return 0, false
}

// allowedValues is the closed set a label draws from, nil when it is
// bounded only by count.
func allowedValues(label string, poolSize int) []string {
	switch label {
	case "shard":
		var shards []string
		for i := range poolSize {
			shards = append(shards, strconv.Itoa(i))
		}
		return shards
	case "route":
		return []string{api.PathPing, api.PathJobs, api.PathManifest, api.PathWorkers,
			api.PathResults + "{speckey}", api.PathJobs + "/{id}", api.PathJobs + "/{id}/events",
			api.PathJobs + "/{id}/spans", "other"}
	case "class":
		return []string{"2xx", "3xx", "4xx", "5xx"}
	case "workload":
		return workload.Names()
	case "state":
		return []string{api.WorkerUp, api.WorkerDraining, api.WorkerDown}
	}
	return nil
}

// scrapeFamilies GETs base/metrics, validates it with promtext.ParseExposition,
// and returns each declared family's series as label maps (a
// histogram's le buckets, _sum and _count fold into one series).
func scrapeFamilies(t *testing.T, base string) map[string][]map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := promtext.ParseExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	fams := map[string][]map[string]string{}
	seen := map[string]bool{}
	kind := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[f[2]], kind[f[2]] = nil, f[3]
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels := parseSample(t, line)
		if kind[name] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && kind[base] == "histogram" {
					name = base
				}
			}
		}
		delete(labels, "le")
		key := name + labelKey(labels)
		if !seen[key] {
			seen[key] = true
			fams[name] = append(fams[name], labels)
		}
	}
	return fams
}

// parseSample splits `name{a="b",...} value` into the name and labels,
// undoing the exposition's label-value escapes.
func parseSample(t *testing.T, line string) (string, map[string]string) {
	t.Helper()
	labels := map[string]string{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("bad sample %q", line)
	}
	if line[i] == ' ' {
		return line[:i], labels
	}
	name, rest := line[:i], line[i+1:]
	for !strings.HasPrefix(rest, "}") {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			t.Fatalf("bad sample %q", line)
		}
		label := strings.TrimPrefix(rest[:eq], ",")
		rest = rest[eq+2:]
		var v strings.Builder
		for len(rest) > 0 && rest[0] != '"' {
			if rest[0] == '\\' && len(rest) > 1 {
				rest = rest[1:]
				if rest[0] == 'n' {
					v.WriteByte('\n')
					rest = rest[1:]
					continue
				}
			}
			v.WriteByte(rest[0])
			rest = rest[1:]
		}
		if rest == "" {
			t.Fatalf("unterminated label in %q", line)
		}
		labels[label] = v.String()
		rest = strings.TrimPrefix(rest[1:], ",")
	}
	return name, labels
}

// labelKey renders labels in sorted order, as a map key.
func labelKey(labels map[string]string) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(labels)) {
		b.WriteString(k + "=" + strconv.Quote(labels[k]) + ",")
	}
	return b.String()
}

// labelValues collects, per label name, the values a family's series
// carry.
func labelValues(series []map[string]string) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, s := range series {
		for k, v := range s {
			if out[k] == nil {
				out[k] = map[string]bool{}
			}
			out[k][v] = true
		}
	}
	return out
}
