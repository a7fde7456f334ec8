package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentilePickerWantsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{50, 19, false}, {50, 20, true}, {90, 99, false}, {90, 100, true},
		{99, 999, false}, {99, 1000, true}, {99.9, 9999, false}, {99.9, 10000, true},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(p%v, %d samples) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	var l latencies
	for i := 1; i <= 99; i++ {
		l.succeed(float64(i))
	}
	if got := l.quote(90); got != 0 {
		t.Errorf("p90 of 99 samples quoted as %v; nine samples lie beyond it", got)
	}
	l.succeed(100)
	if got := l.quote(90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := l.percentile(50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestFailuresCountAgainstAttemptsAndMissEveryLimit(t *testing.T) {
	var l latencies
	for i := 1; i <= 6; i++ {
		l.succeed(float64(i))
	}
	for i := 0; i < 4; i++ {
		l.fail()
	}
	if l.attempted() != 10 || l.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 10 and 4", l.attempted(), l.failed)
	}
	// Ranked over all ten attempts the failed four come last: the
	// median is the fifth success, and p90 falls among the failures.
	if got := l.percentile(50); got != 5 {
		t.Errorf("p50 = %v, want 5 (dropping the failures would give 3)", got)
	}
	if got := l.percentile(90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf: a failed operation misses any latency limit", got)
	}
	if got := finite(l.percentile(90), 8000); got != 8000 {
		t.Errorf("finite(+Inf) = %v, want the run length", got)
	}
	var m latencies
	m.merge(l)
	m.merge(l)
	if m.attempted() != 20 || m.failed != 8 {
		t.Errorf("merged: attempted %d failed %d, want 20 and 8", m.attempted(), m.failed)
	}
}

func TestSpanSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{Name: "job", StartUS: 0, EndUS: 100, Parent: -1},
		{Name: "submit", StartUS: 0, EndUS: 10, Parent: 0},
		{Name: "wait", StartUS: 10, EndUS: 90, Parent: 0},
		{Name: "poll", StartUS: 10, EndUS: 12, Parent: 2},
		{Name: "poll", StartUS: 60, EndUS: 63, Parent: 2},
		// Two runs overlapping under one pass, one outliving it.
		{Name: "pass", StartUS: 200, EndUS: 300, Parent: -1},
		{Name: "run", StartUS: 200, EndUS: 260, Parent: 5},
		{Name: "run", StartUS: 240, EndUS: 320, Parent: 5},
	}
	want := []int64{10, 10, 75, 2, 3, 0, 60, 80}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := coveredFrac(spans); math.Abs(got-0.95) > 1e-9 {
		t.Errorf("coveredFrac = %v, want 0.95 (190 of 200 µs of job and pass covered)", got)
	}
	if got := spanTimes(spans, true)["wait"]; len(got) != 1 || got[0] != 0.075 {
		t.Errorf("wait self time = %v ms, want [0.075]: the time Wait spent in no request", got)
	}

	var off *tracer
	if id := off.start("x", -1, off.newOp()); id != -1 || off.snapshot() != nil {
		t.Errorf("a nil tracer must record nothing")
	}
	off.end(-1)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []whyEntry  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type whyEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func TestNamesCountsAndBenchmarkFileAgree(t *testing.T) {
	if len(workloadDefs) != 6 || len(endToEnd) != 6 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics; want 6, 6, at most 128", len(workloadDefs), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	for _, w := range workloadDefs {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name, d.Unit)
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", "lower", 0.25}) {
		t.Errorf("setup_s must be declared in seconds, lower is better, with the largest bound: %+v", endToEnd[0])
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var whys []whyEntry
	for _, w := range workloadDefs {
		whys = append(whys, whyEntry{w.Name, w.Why})
	}
	if !reflect.DeepEqual(f.Workloads, whys) {
		t.Errorf("BENCHMARK.json workloads differ from workloadDefs:\n%+v\n%+v", f.Workloads, whys)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("BENCHMARK.json paths %v run_seconds %d", f.Paths, f.RunSeconds)
	}
}

func TestResultLineAndRecordRoundTrip(t *testing.T) {
	set := metricSet{}
	for i, d := range endToEnd {
		set[d.Name] = 1.5 + float64(i)
	}
	metrics, err := report(endToEnd, set)
	if err != nil {
		t.Fatal(err)
	}
	rec := &record{
		Schema: recordSchema, Workload: "serve-hit", Seed: 2, Seconds: 10,
		result:    result{Correct: true, Attempted: 7, Failed: 0, Metrics: metrics},
		SimDigest: "ab", Exact: map[string]uint64{"cycles": 3},
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line %s must have exactly correct, attempted, failed, metrics", line)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rec) {
		t.Errorf("record did not survive a JSON round trip:\n%+v\n%+v", back, rec)
	}

	delete(set, "setup_s")
	if _, err := report(endToEnd, set); err == nil {
		t.Errorf("report accepted a run that did not measure setup_s")
	}
	set["setup_s"], set["stray"] = 1, 1
	if _, err := report(endToEnd, set); err == nil {
		t.Errorf("report accepted an undeclared metric")
	}
}

func TestRequestsArePureFunctionOfSeedClientIndex(t *testing.T) {
	sequence := func(seed uint64) []string {
		g := newGenerator(seed, workloadNames(), designNames())
		var out []string
		for c := 0; c < clients; c++ {
			for i := 0; i < 300; i++ {
				for _, req := range []jobRequest{g.hit(c, i), g.cold(c, i)} {
					b, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, string(b))
				}
			}
		}
		return out
	}
	a, again, other := sequence(1), sequence(1), sequence(2)
	if !reflect.DeepEqual(a, again) {
		t.Errorf("the same seed generated two different request sequences")
	}
	if reflect.DeepEqual(a, other) {
		t.Errorf("seeds 1 and 2 generated the same request sequence")
	}

	for in, want := range map[uint64]uint64{0: 1, 1: 1, maxSeed: maxSeed, maxSeed + 1: 2, 1 << 63: 1<<63%maxSeed + 1} {
		if got := foldSeed(in); got != want || got < 1 || got > maxSeed {
			t.Errorf("foldSeed(%d) = %d, want %d", in, got, want)
		}
	}

	g := newGenerator(1, workloadNames(), designNames())
	if g.gridSeed() != 1 || newGenerator(2, workloadNames(), designNames()).gridSeed() != 2 {
		t.Errorf("the grid seed must follow -seed")
	}
	// Both clients together read every prefilled key, and no cold job
	// ever reuses a simulation seed — or a grid seed.
	cells, seeds := map[string]bool{}, map[uint64]bool{}
	for c := 0; c < clients; c++ {
		for i := 0; i < 130; i++ {
			o := g.hit(c, i).Specs[0]
			cells[o.Workload+"/"+o.Design] = true
			s := g.cold(c, i).Grid.Template.Seed
			if seeds[s] || s <= maxSeed {
				t.Fatalf("cold seed %d of client %d job %d is reused or collides with a grid seed", s, c, i)
			}
			seeds[s] = true
		}
	}
	if len(cells) != 130 {
		t.Errorf("hit jobs cover %d of the 130 prefilled cells", len(cells))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v; Python gives 7.5, 22.5", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"op_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	steady := func(vs ...float64) series { return newSeries("x", vs) }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b series
		want string
	}{
		{"same", lower, steady(100, 101, 99, 100, 100), steady(100, 102, 100, 99, 101), verdictOK},
		{"slower beyond the bound", lower, steady(100, 101, 99, 100, 100), steady(112, 113, 111, 112, 112), verdictWorse},
		{"slower within the bound", lower, steady(100, 101, 99, 100, 100), steady(108, 109, 107, 108, 108), verdictOK},
		{"fewer per second beyond the bound", higher, steady(100, 101, 99, 100, 100), steady(88, 89, 87, 88, 88), verdictWorse},
		{"more per second", higher, steady(100, 101, 99, 100, 100), steady(130, 131, 129, 130, 130), verdictOK},
		{"spread wider than the bound", lower, steady(100, 130, 80, 100, 120), steady(100, 125, 85, 100, 118), verdictUnresolved},
		{"wide spread, yet every run better", lower, steady(100, 130, 80, 100, 120), steady(50, 60, 40, 55, 70), verdictOK},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(p50 float64, digest string) *suite {
		sw := suiteWorkload{Name: "serve-hit", Correct: true, Attempted: 10, SimDigest: digest,
			Exact: map[string]uint64{"cycles": 7}, EndToEnd: map[string]series{}}
		for _, d := range endToEnd {
			sw.EndToEnd[d.Name] = steady(p50, p50, p50)
		}
		return &suite{Schema: suiteSchema, Workloads: []suiteWorkload{sw}}
	}
	var out bytes.Buffer
	if code := compareSuites(mk(100, "d1"), mk(100, "d1"), &out); code != 0 {
		t.Errorf("A/A compare exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSuites(mk(100, "d1"), mk(150, "d2"), &out); code != 1 {
		t.Errorf("a 50%% regression exits %d, want 1", code)
	}
	for _, want := range []string{"worse", "1.500 of 100 x", "SIMULATED RESULTS DIFFER"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
