// Package stats is the simulator's metrics registry: named counters
// and histograms that the pipeline, translation devices, and caches
// record fine-grained events into (translation-latency distributions,
// squash and replay counts, fetch stall causes). Aggregate end-of-run
// numbers live in cpu.Stats and tlb.Stats; this package holds the
// distributions and event streams that turn those aggregates into an
// oracle tests can assert on.
//
// A Registry belongs to one simulated machine and is not safe for
// concurrent use — the harness runs machines in parallel, but each owns
// its registry exclusively, which keeps the hot increment paths free of
// synchronization. The machine keeps its registry from run to run and
// zeroes it (Reset); what a run counted leaves the machine by value
// (cpu.Observed, in engine.RunResult). A run's Snapshot is rendered
// from those values and the run's aggregate statistics only where it is
// read (cpu.RenderMetrics, through engine.RunResult.Metrics):
// Result.Metrics, `hbat -analyze`, and `hbat -metrics` / `-metrics-csv`
// (WriteJSON, WriteCSV). A sweep renders none. The run's headline
// counters travel in its artifact (api.Result). Nothing sums snapshots
// across runs: a total over every design and workload a process ran
// answers no question about any one of them.
package stats

import (
	"fmt"
	"io"
	"sort"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Histogram is a distribution over int64 samples with explicit bucket
// upper bounds: sample v falls in the first bucket with v <= bound; an
// implicit overflow bucket catches the rest.
type Histogram struct {
	name   string
	bounds []int64  // ascending upper bounds
	counts []uint64 // len(bounds)+1; last is overflow
	sum    int64
	n      uint64
	max    int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v, exactly as n calls of
// Observe(v) would: a caller that counts samples per value folds them
// in with one bucket search per value.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.n += n
	h.sum += v * int64(n)
	if v > h.max {
		h.max = v
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i] += n
			return
		}
	}
	h.counts[len(h.bounds)] += n
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest sample (0 before any Observe).
func (h *Histogram) Max() int64 { return h.max }

// Buckets returns the bucket bounds and counts (the final count is the
// overflow bucket, bound +inf).
func (h *Histogram) Buckets() (bounds []int64, counts []uint64) {
	return h.bounds, h.counts
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

// Registry is an ordered collection of named metrics. Lookups by name
// return the existing metric, so call sites may re-request handles
// cheaply; names must not collide across metric kinds.
type Registry struct {
	order      []string
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

func (r *Registry) claim(name string) {
	if _, dup := r.counters[name]; dup {
		panic(fmt.Sprintf("stats: %q already registered as a counter", name))
	}
	if _, dup := r.histograms[name]; dup {
		panic(fmt.Sprintf("stats: %q already registered as a histogram", name))
	}
	r.order = append(r.order, name)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.claim(name)
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (ignored when it already exists).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: %q bucket bounds not ascending: %v", name, bounds))
		}
	}
	r.claim(name)
	h := &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// Reset zeroes every metric's value, keeping the metrics and the
// handles callers hold to them.
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.v = 0
	}
	for _, h := range r.histograms {
		clear(h.counts)
		h.sum, h.n, h.max = 0, 0, 0
	}
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

// Snapshot is a point-in-time copy of a registry, ordered by name.
type Snapshot []Metric

// Snapshot copies every metric's current state, sorted by name so the
// export is stable regardless of registration order.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, 0, len(r.order))
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		switch {
		case r.counters[name] != nil:
			c := r.counters[name]
			out = append(out, Metric{Name: name, Kind: "counter", Value: c.v})
		case r.histograms[name] != nil:
			h := r.histograms[name]
			out = append(out, HistogramMetric(name, h.bounds, h.counts, h.sum, h.max))
		}
	}
	return out
}

// HistogramMetric exports a histogram's state held elsewhere: its
// bucket bounds and counts (the last count is the overflow bucket, as
// Histogram.Buckets returns them), and its samples' sum and maximum.
// The Metric holds copies of bounds and counts.
func HistogramMetric(name string, bounds []int64, counts []uint64, sum, maximum int64) Metric {
	var n uint64
	for _, c := range counts {
		n += c
	}
	mean := 0.0
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	return Metric{
		Name: name, Kind: "histogram",
		Count: n, Sum: sum, Mean: mean, Max: maximum,
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
