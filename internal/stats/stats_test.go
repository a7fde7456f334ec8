package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpu.squashes")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("cpu.squashes") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{0, 1, 3, 7})
	for _, v := range []int64{0, 0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	want := []uint64{2, 1, 2, 1, 2} // le0, le1, le3, le7, overflow
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], want[i], counts)
		}
	}
	if h.n != 8 || h.Sum() != 120 || h.Max() != 100 {
		t.Fatalf("count %d sum %d max %d", h.n, h.Sum(), h.Max())
	}
}

// ObserveN(v, n) leaves a histogram exactly as n Observe(v) calls do,
// and ObserveN(v, 0) leaves it untouched.
func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	one := r.Histogram("one", []int64{0, 1, 3, 7})
	bulk := r.Histogram("bulk", []int64{0, 1, 3, 7})
	for v, n := range []uint64{3, 0, 5, 1, 0, 0, 2, 0, 0, 0, 4} {
		for range n {
			one.Observe(int64(v))
		}
		bulk.ObserveN(int64(v), n)
	}
	bulk.ObserveN(99, 0)
	snap := r.Snapshot()
	a, _ := snap.Get("one")
	b, _ := snap.Get("bulk")
	a.Name, b.Name = "", ""
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ObserveN: %+v, Observe: %+v", b, a)
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

func TestNameCollisionAcrossKindsPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind collision")
		}
	}()
	r.Histogram("x", nil)
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zebra").Add(1)
	r.Counter("alpha").Add(2)
	r.Histogram("mid", []int64{1}).Observe(5)
	s := r.Snapshot()
	if len(s) != 3 {
		t.Fatalf("snapshot len %d", len(s))
	}
	for i, want := range []string{"alpha", "mid", "zebra"} {
		if s[i].Name != want {
			t.Fatalf("order %v", s)
		}
	}
	if m, _ := s.Get("zebra"); m.Value != 1 {
		t.Fatalf("zebra = %d", m.Value)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("found a metric that does not exist")
	}
}

func TestWriteJSONIsValidJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("b")
	h := r.Histogram("c", []int64{0, 4})
	h.Observe(2)
	h.Observe(9)

	var sb strings.Builder
	if err := r.Snapshot().WriteJSON(&sb); err != nil {
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
	r := NewRegistry()
	r.Counter("hits").Add(7)
	h := r.Histogram("lat", []int64{1})
	h.Observe(0)
	h.Observe(5)

	var sb strings.Builder
	if err := r.Snapshot().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"name,kind,value\n",
		"hits,counter,7\n",
		"lat.count,histogram,2\n",
		"lat.le_1,histogram,1\n",
		"lat.le_inf,histogram,1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}
