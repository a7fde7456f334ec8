package stats

import (
	"strings"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{0, 1, 3})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %d, want 0", q, got)
		}
	}
}

func TestQuantileSingleSample(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{0, 1, 3, 7})
	h.Observe(2)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 3 {
			t.Errorf("Quantile(%v) = %d, want 3 (bucket upper bound of the one sample)", q, got)
		}
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{0, 1, 3})
	for i := 0; i < 9; i++ {
		h.Observe(0)
	}
	h.Observe(500) // overflow: above the last bound
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("median = %d, want 0", got)
	}
	// The tail quantile lands in the overflow bucket and is capped at the
	// observed maximum rather than reporting an unbounded bucket.
	if got := h.Quantile(1); got != 500 {
		t.Errorf("p100 = %d, want the observed max 500", got)
	}
	if got := h.Quantile(0.99); got != 500 {
		t.Errorf("p99 = %d, want 500", got)
	}
}

func TestQuantileClampsRange(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{0, 1})
	h.Observe(0)
	h.Observe(1)
	if got := h.Quantile(-3); got != 0 {
		t.Errorf("Quantile(-3) = %d, want 0 (clamped to q=0)", got)
	}
	if got := h.Quantile(42); got != 1 {
		t.Errorf("Quantile(42) = %d, want 1 (clamped to q=1)", got)
	}
}

func TestIntervalSeriesCSV(t *testing.T) {
	s := NewIntervalSeries(100, "cycle", "ipc", "tlb.miss_rate")
	if s.Every() != 100 {
		t.Fatalf("Every = %d", s.Every())
	}
	s.Append(100, 1.5, 0.25)
	s.Append(200, 0.5, 0)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "cycle,ipc,tlb.miss_rate\n100,1.5,0.25\n200,0.5,0\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestIntervalSeriesPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero interval", func() { NewIntervalSeries(0, "cycle") })
	mustPanic("no columns", func() { NewIntervalSeries(10) })
	mustPanic("arity mismatch", func() {
		s := NewIntervalSeries(10, "a", "b")
		s.Append(1)
	})
}
