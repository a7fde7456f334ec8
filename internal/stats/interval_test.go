package stats

import (
	"strings"
	"testing"
)

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
