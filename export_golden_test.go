package hbat

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// TestExportGolden pins the bytes of one run's three exports against
// testdata/export_compress_T1.golden, which holds what
//
//	hbat -workload compress -design T1 -scale test -interval 500 \
//	     -metrics m.json -metrics-csv m.csv -interval-csv i.csv
//
// wrote, each file under a "== hbat -flag" header line. The file is
// never regenerated: a change to how the core counts an event must
// leave every exported byte as it was. (Its one edit removed the two
// lines of fetch.stall_itlb_cycles, a metric deleted with the
// micro-ITLB study, which read 0 here.)
func TestExportGolden(t *testing.T) {
	res, err := Simulate(context.Background(), Options{
		CommonOptions: CommonOptions{Scale: "test"},
		Workload:      "compress",
		Design:        "T1",
		IntervalEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString("== hbat -metrics\n")
	if err := res.Metrics.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	got.WriteString("== hbat -metrics-csv\n")
	if err := res.Metrics.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	got.WriteString("== hbat -interval-csv\n")
	if err := res.Intervals.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/export_compress_T1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("export has %d lines, golden file %d", len(gl), len(wl))
	}
}
