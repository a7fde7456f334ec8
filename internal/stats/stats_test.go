package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	bounds := []int64{0, 1, 3, 7}
	var d Dist
	for _, v := range []int64{0, 0, 1, 2, 3, 5, 9, 100} {
		d.Observe(bounds, v)
	}
	want := []uint64{2, 1, 2, 1, 2} // le0, le1, le3, le7, overflow
	for i := range want {
		if d.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, d.Buckets[i], want[i], d.Buckets)
		}
	}
	if m := d.Metric("lat", bounds); m.Count != 8 || m.Sum != 120 || m.Max != 100 || len(m.Buckets) != 5 {
		t.Fatalf("count %d sum %d max %d buckets %v", m.Count, m.Sum, m.Max, m.Buckets)
	}
}

// ObserveN(v, n) leaves a distribution exactly as n Observe(v) calls
// do, and ObserveN(v, 0) leaves it untouched.
func TestHistogramObserveN(t *testing.T) {
	bounds := []int64{0, 1, 3, 7}
	var one, bulk Dist
	for v, n := range []uint64{3, 0, 5, 1, 0, 0, 2, 0, 0, 0, 4} {
		for range n {
			one.Observe(bounds, int64(v))
		}
		bulk.ObserveN(bounds, int64(v), n)
	}
	bulk.ObserveN(bounds, 99, 0)
	if one != bulk {
		t.Fatalf("ObserveN: %+v, Observe: %+v", bulk, one)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 5)
	for i, want := range []int64{1, 2, 4, 8, 16} {
		if exp[i] != want {
			t.Fatalf("exp %v", exp)
		}
	}
}

// lat is a two-sample histogram over bounds {0, 4}.
func lat(name string) Metric {
	var d Dist
	d.Observe([]int64{0, 4}, 2)
	d.Observe([]int64{0, 4}, 9)
	return d.Metric(name, []int64{0, 4})
}

func TestWriteJSONIsValidJSON(t *testing.T) {
	s := Snapshot{
		{Name: "a", Kind: "counter", Value: 3},
		{Name: "b", Kind: "counter"},
		lat("c"),
	}
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(decoded) != 3 {
		t.Fatalf("decoded %d metrics", len(decoded))
	}
	if decoded[0]["name"] != "a" || decoded[0]["value"] != float64(3) {
		t.Fatalf("counter row %v", decoded[0])
	}
	if decoded[2]["count"] != float64(2) {
		t.Fatalf("histogram row %v", decoded[2])
	}
}

func TestWriteCSV(t *testing.T) {
	s := Snapshot{{Name: "hits", Kind: "counter", Value: 7}, lat("lat")}
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"name,kind,value\n",
		"hits,counter,7\n",
		"lat.count,histogram,2\n",
		"lat.le_4,histogram,1\n",
		"lat.le_inf,histogram,1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}
