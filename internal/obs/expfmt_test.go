package obs

import (
	"strings"
	"testing"

	"hbat/internal/promtext"
)

// TestWriteExpositionGolden pins the exposition byte-for-byte: family
// ordering (sorted by name), series ordering (sorted by label
// signature), label escaping, cumulative histogram buckets ending at
// +Inf, and _sum/_count lines.
func TestWriteExpositionGolden(t *testing.T) {
	fams := []Family{
		{Name: "hbat_zeta_total", Kind: "counter", Help: "Last declared, first alphabetically after others.",
			Series: []Series{{Value: 3}}},
		{Name: "hbat_latency_ms", Kind: "histogram", Help: "A histogram.",
			Hists: []HistSeries{
				{Labels: []Label{{"workload", "perl"}}, Bounds: []int64{1, 4}, Counts: []uint64{2, 1, 1}, Sum: 9.5, Count: 4},
				{Labels: []Label{{"workload", "gcc"}}, Bounds: []int64{1, 4}, Counts: []uint64{1, 0, 0}, Sum: 0.5, Count: 1},
			}},
		{Name: "hbat_gauge", Kind: "gauge", Help: `Escapes: back\slash and
newline.`,
			Series: []Series{{Labels: []Label{{"q", `a"b\c` + "\n"}}, Value: 1.5}}},
	}
	var b strings.Builder
	if err := WriteExposition(&b, fams); err != nil {
		t.Fatal(err)
	}
	want := `# HELP hbat_gauge Escapes: back\\slash and\nnewline.
# TYPE hbat_gauge gauge
hbat_gauge{q="a\"b\\c\n"} 1.5
# HELP hbat_latency_ms A histogram.
# TYPE hbat_latency_ms histogram
hbat_latency_ms_bucket{workload="gcc",le="1"} 1
hbat_latency_ms_bucket{workload="gcc",le="4"} 1
hbat_latency_ms_bucket{workload="gcc",le="+Inf"} 1
hbat_latency_ms_sum{workload="gcc"} 0.5
hbat_latency_ms_count{workload="gcc"} 1
hbat_latency_ms_bucket{workload="perl",le="1"} 2
hbat_latency_ms_bucket{workload="perl",le="4"} 3
hbat_latency_ms_bucket{workload="perl",le="+Inf"} 4
hbat_latency_ms_sum{workload="perl"} 9.5
hbat_latency_ms_count{workload="perl"} 4
# HELP hbat_zeta_total Last declared, first alphabetically after others.
# TYPE hbat_zeta_total counter
hbat_zeta_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The golden output must also satisfy our own validator.
	if _, err := promtext.ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("golden output fails validation: %v", err)
	}
}

func TestWriteExpositionRejectsKindConflict(t *testing.T) {
	fams := []Family{
		{Name: "hbat_x", Kind: "counter", Series: []Series{{Value: 1}}},
		{Name: "hbat_x", Kind: "gauge", Series: []Series{{Value: 2}}},
	}
	if err := WriteExposition(&strings.Builder{}, fams); err == nil {
		t.Error("conflicting kinds for one family not rejected")
	}
}
