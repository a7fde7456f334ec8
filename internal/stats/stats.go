// Package stats is the simulator's metrics vocabulary: the by-value
// distribution (Dist), the export format (Metric, Snapshot and its
// WriteJSON and WriteCSV), and the interval time series
// (IntervalSeries). It keeps no counts itself. A run's counts live in
// one place each: the core's event counters, its three distributions
// and both caches' counters in cpu.Stats, the translation device's in
// tlb.Stats. A run's Snapshot is rendered from those two only where it
// is read (cpu.RenderMetrics, through engine.RunResult.Metrics):
// Result.Metrics, `hbat -analyze`, and `hbat -metrics` / `-metrics-csv`.
// A sweep renders none. The run's headline counters travel in its
// artifact (api.Result). Nothing sums snapshots across runs: a total
// over every design and workload a process ran answers no question
// about any one of them.
package stats

import (
	"fmt"
	"io"
)

// Dist is a distribution over int64 samples, held by value so a
// struct that holds one stays comparable and copies with =. Its bucket
// upper bounds (at most 16, ascending) are the caller's and go with
// every call: sample v falls in the first bucket whose bound v does not
// exceed, and the bucket after the last bound, the overflow, catches
// the rest.
type Dist struct {
	Buckets  [17]uint64
	Sum, Max int64 // of the samples; Max is 0 before any
}

// Observe records one sample.
func (d *Dist) Observe(bounds []int64, v int64) { d.ObserveN(bounds, v, 1) }

// ObserveN records n samples of value v, exactly as n calls of
// Observe(v) would: a caller that counts samples per value folds them
// in with one bucket search per value.
func (d *Dist) ObserveN(bounds []int64, v int64, n uint64) {
	if n == 0 {
		return
	}
	d.Sum += v * int64(n)
	d.Max = max(d.Max, v)
	for i, b := range bounds {
		if v <= b {
			d.Buckets[i] += n
			return
		}
	}
	d.Buckets[len(bounds)] += n
}

// ExpBuckets returns n upper bounds start, start*factor, ... (factor
// must be >= 2 to guarantee strictly increasing integer bounds).
func ExpBuckets(start, factor int64, n int) []int64 {
	out := make([]int64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// Metric is one exported metric in a Snapshot. Exactly one of the
// kind-specific groups is meaningful, selected by Kind.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter" or "histogram"

	// Counter.
	Value uint64 `json:"value,omitempty"`

	// Histogram.
	Max     int64    `json:"max,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Mean    float64  `json:"mean,omitempty"`
	Bounds  []int64  `json:"bounds,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Snapshot is a list of metrics, ordered by name.
type Snapshot []Metric

// Metric exports the distribution under name, with copies of its
// bounds and bucket counts.
func (d *Dist) Metric(name string, bounds []int64) Metric {
	counts := d.Buckets[:len(bounds)+1]
	var n uint64
	for _, c := range counts {
		n += c
	}
	mean := 0.0
	if n > 0 {
		mean = float64(d.Sum) / float64(n)
	}
	return Metric{
		Name: name, Kind: "histogram",
		Count: n, Sum: d.Sum, Mean: mean, Max: d.Max,
		Bounds:  append([]int64(nil), bounds...),
		Buckets: append([]uint64(nil), counts...),
	}
}

// WriteJSON writes the snapshot as a JSON array. The encoding is
// hand-rolled (ordered, no reflection) so exports are byte-stable for
// golden files.
func (s Snapshot) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, m := range s {
		sep := ","
		if i == len(s)-1 {
			sep = ""
		}
		var err error
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "  {\"name\":%q,\"kind\":\"counter\",\"value\":%d}%s\n", m.Name, m.Value, sep)
		default:
			_, err = fmt.Fprintf(w, "  {\"name\":%q,\"kind\":\"histogram\",\"count\":%d,\"sum\":%d,\"mean\":%.6f,\"max\":%d,\"bounds\":%s,\"buckets\":%s}%s\n",
				m.Name, m.Count, m.Sum, m.Mean, m.Max, jsonInts(m.Bounds), jsonUints(m.Buckets), sep)
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// WriteCSV writes the snapshot as name,kind,value rows; histograms emit
// one summary row plus one row per bucket (name suffixed with "le_N" or
// "le_inf").
func (s Snapshot) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "name,kind,value\n"); err != nil {
		return err
	}
	for _, m := range s {
		var err error
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s,counter,%d\n", m.Name, m.Value)
		default:
			if _, err = fmt.Fprintf(w, "%s.count,histogram,%d\n%s.sum,histogram,%d\n%s.max,histogram,%d\n",
				m.Name, m.Count, m.Name, m.Sum, m.Name, m.Max); err != nil {
				return err
			}
			for i, c := range m.Buckets {
				bound := "inf"
				if i < len(m.Bounds) {
					bound = fmt.Sprint(m.Bounds[i])
				}
				if _, err = fmt.Fprintf(w, "%s.le_%s,histogram,%d\n", m.Name, bound, c); err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func jsonInts(v []int64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s + "]"
}

func jsonUints(v []uint64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s + "]"
}
