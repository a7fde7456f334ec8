package stats

import (
	"fmt"
	"io"
	"strconv"
)

// IntervalSeries is a fixed-column time series: one row appended every
// sampling interval (N simulated cycles), exported as CSV for external
// plotting. The machine owns the sampling cadence; the series just
// stores rows, so it stays decoupled from what is being sampled.
type IntervalSeries struct {
	every int64
	cols  []string
	rows  [][]float64
}

// NewIntervalSeries builds a series sampled every N cycles with the
// given column names (the first column is conventionally "cycle").
func NewIntervalSeries(every int64, cols ...string) *IntervalSeries {
	if every <= 0 {
		panic("stats: interval must be positive")
	}
	if len(cols) == 0 {
		panic("stats: interval series needs at least one column")
	}
	return &IntervalSeries{every: every, cols: append([]string(nil), cols...)}
}

// Every returns the sampling interval in cycles.
func (s *IntervalSeries) Every() int64 { return s.every }

// Append adds one sample row; its arity must match the columns.
func (s *IntervalSeries) Append(row ...float64) {
	if len(row) != len(s.cols) {
		panic(fmt.Sprintf("stats: interval row has %d values, series has %d columns", len(row), len(s.cols)))
	}
	s.rows = append(s.rows, append([]float64(nil), row...))
}

// WriteCSV writes a header row of column names followed by one line per
// sample. Values render with strconv's shortest-round-trip formatting,
// so the export is byte-stable.
func (s *IntervalSeries) WriteCSV(w io.Writer) error {
	for i, c := range s.cols {
		sep := ","
		if i == len(s.cols)-1 {
			sep = "\n"
		}
		if _, err := io.WriteString(w, c+sep); err != nil {
			return err
		}
	}
	for _, row := range s.rows {
		for i, v := range row {
			sep := ","
			if i == len(row)-1 {
				sep = "\n"
			}
			if _, err := io.WriteString(w, strconv.FormatFloat(v, 'g', -1, 64)+sep); err != nil {
				return err
			}
		}
	}
	return nil
}
