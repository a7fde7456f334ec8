// Package stats is the simulator's metrics registry: named counters,
// gauges, and histograms that the pipeline, translation devices, and
// caches record fine-grained events into (TLB-port queue depths,
// translation-latency distributions, squash and replay counts, fetch
// stall causes). Aggregate end-of-run numbers live in cpu.Stats and
// tlb.Stats; this package holds the distributions and event streams
// that turn those aggregates into an oracle tests can assert on, and
// that the harness exports as JSON/CSV.
//
// A Registry belongs to one simulated machine and is not safe for
// concurrent use — the harness runs machines in parallel, but each owns
// its registry exclusively, which keeps the hot increment paths free of
// synchronization. Cross-run aggregation (the /metrics endpoint of
// internal/obs) therefore never reads a live machine's registry:
// the sweep engine folds each completed run's Snapshot into a private
// aggregate registry under its own lock (Registry.Merge), and scrapes
// read only that aggregate.
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

// Set overwrites the count (used when mirroring an externally
// maintained aggregate into the registry at end of run).
func (c *Counter) Set(n uint64) { c.v = n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous level (queue depth, occupancy). It tracks
// the maximum level seen alongside the current value.
type Gauge struct {
	name string
	v    int64
	max  int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Value returns the most recently set level.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the highest level ever set.
func (g *Gauge) Max() int64 { return g.max }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

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

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the total of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest sample (0 before any Observe).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the average sample (0 before any Observe).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Buckets returns the bucket bounds and counts (the final count is the
// overflow bucket, bound +inf).
func (h *Histogram) Buckets() (bounds []int64, counts []uint64) {
	return h.bounds, h.counts
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts: it returns the upper bound of the first bucket whose
// cumulative count reaches q of the samples, and the largest observed
// sample for quantiles landing in the overflow bucket. An empty
// histogram reports 0. The estimate is conservative (an upper bound on
// the true quantile within bucket resolution), which is the useful
// direction for latency reporting.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the q-quantile sample, 1-based and rounded up (the
	// conservative direction); q=0 means the first.
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max // overflow bucket: cap at the observed maximum
		}
	}
	return h.max
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// LinearBuckets returns n upper bounds start, start+step, ...
func LinearBuckets(start, step int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*step
	}
	return out
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
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

func (r *Registry) claim(name string) {
	if _, dup := r.counters[name]; dup {
		panic(fmt.Sprintf("stats: %q already registered as a counter", name))
	}
	if _, dup := r.gauges[name]; dup {
		panic(fmt.Sprintf("stats: %q already registered as a gauge", name))
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

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.claim(name)
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
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

// Merge folds a snapshot into the registry, creating metrics on first
// sight: counters add their values, gauges take the incoming level and
// the maximum of the two maxima, and histograms add bucket-wise. A
// histogram whose bucket bounds differ from the already-registered ones
// folds its samples into the overflow bucket instead, so the bucket
// totals always still equal the count (the invariant the Prometheus
// exposition relies on).
//
// Merge is how per-run registries become a live aggregate without
// locking the hot increment paths: each machine owns its registry
// exclusively during the run, and the sweep engine merges the finished
// run's Snapshot under the engine lock.
func (r *Registry) Merge(s Snapshot) {
	for _, m := range s {
		switch m.Kind {
		case "counter":
			r.Counter(m.Name).Add(m.Value)
		case "gauge":
			g := r.Gauge(m.Name)
			g.Set(m.Level)
			if m.Max > g.max {
				g.max = m.Max
			}
		case "histogram":
			h := r.Histogram(m.Name, m.Bounds)
			if boundsEqual(h.bounds, m.Bounds) && len(m.Buckets) == len(h.counts) {
				for i, c := range m.Buckets {
					h.counts[i] += c
				}
			} else {
				h.counts[len(h.counts)-1] += m.Count
			}
			h.n += m.Count
			h.sum += m.Sum
			if m.Max > h.max {
				h.max = m.Max
			}
		}
	}
}

func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Metric is one exported metric in a Snapshot. Exactly one of the
// kind-specific groups is meaningful, selected by Kind.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge", or "histogram"

	// Counter.
	Value uint64 `json:"value,omitempty"`

	// Gauge.
	Level int64 `json:"level,omitempty"`

	// Gauge and histogram.
	Max int64 `json:"max,omitempty"`

	// Histogram.
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
		case r.gauges[name] != nil:
			g := r.gauges[name]
			out = append(out, Metric{Name: name, Kind: "gauge", Level: g.v, Max: g.max})
		case r.histograms[name] != nil:
			h := r.histograms[name]
			out = append(out, Metric{
				Name: name, Kind: "histogram",
				Count: h.n, Sum: h.sum, Mean: h.Mean(), Max: h.max,
				Bounds:  append([]int64(nil), h.bounds...),
				Buckets: append([]uint64(nil), h.counts...),
			})
		}
	}
	return out
}

// Get returns the named metric from the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// CounterValue returns the named counter's value (0 when absent — the
// convenient form for test assertions).
func (s Snapshot) CounterValue(name string) uint64 {
	m, _ := s.Get(name)
	return m.Value
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
		case "gauge":
			_, err = fmt.Fprintf(w, "  {\"name\":%q,\"kind\":\"gauge\",\"level\":%d,\"max\":%d}%s\n", m.Name, m.Level, m.Max, sep)
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
		case "gauge":
			_, err = fmt.Fprintf(w, "%s,gauge,%d\n%s.max,gauge,%d\n", m.Name, m.Level, m.Name, m.Max)
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
