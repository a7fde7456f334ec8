package obs

import (
	"strings"
	"testing"

	"hbat/internal/promtext"
)

// The reference parser (internal/promtext) is tested here, beside the
// exposition writer whose output it validates.

func TestParseExpositionAccepts(t *testing.T) {
	cases := map[string]struct {
		in      string
		samples int
	}{
		"bare": {"x 1\n", 1},
		"typed counter": {`# HELP x Something.
# TYPE x counter
x 1
`, 1},
		"labels and timestamp": {"x{a=\"b\",c=\"d\"} 1.5 1700000000\n", 1},
		"special values":       {"a +Inf\nb -Inf\nc NaN\nd 1e-9\n", 4},
		"histogram": {`# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 5
h_sum 9
h_count 5
`, 4},
		"escaped label": {`x{p="a\"b\\c\nd"} 2` + "\n", 1},
		"blank lines and comments": {`
# a free-form comment

x 1
`, 1},
	}
	for name, tc := range cases {
		n, err := promtext.ParseExposition(strings.NewReader(tc.in))
		if err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
		if n != tc.samples {
			t.Errorf("%s: %d samples, want %d", name, n, tc.samples)
		}
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":           "1x 2\n",
		"no value":           "x\n",
		"bad value":          "x one\n",
		"bad timestamp":      "x 1 soon\n",
		"unterminated label": `x{a="b 1` + "\n",
		"bad escape":         `x{a="\t"} 1` + "\n",
		"unknown type":       "# TYPE x widget\nx 1\n",
		"duplicate type":     "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"type after samples": "x 1\n# TYPE x counter\n",
		"interleaved families": `# TYPE a counter
a 1
# TYPE b counter
b 1
a{z="2"} 2
`,
		"duplicate series": "x{a=\"1\"} 1\nx{a=\"1\"} 2\n",
		"histogram missing +Inf": `# TYPE h histogram
h_bucket{le="1"} 2
h_sum 9
h_count 5
`,
		"histogram decreasing buckets": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 9
h_count 5
`,
		"histogram count mismatch": `# TYPE h histogram
h_bucket{le="+Inf"} 5
h_sum 9
h_count 4
`,
		"histogram missing sum": `# TYPE h histogram
h_bucket{le="+Inf"} 5
h_count 5
`,
		"bare sample in histogram": `# TYPE h histogram
h 3
`,
		"bucket without le": `# TYPE h histogram
h_bucket 3
`,
	}
	for name, in := range cases {
		if _, err := promtext.ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid exposition:\n%s", name, in)
		}
	}
}
