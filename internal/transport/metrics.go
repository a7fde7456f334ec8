// RED instrumentation for the v1 HTTP surface: a middleware that
// records request rate, error class, and duration per route template
// and per tenant, plus gauges over live state (open jobs on either
// role; worker-queue depth and store quota utilization on a worker).
// The families are exported through obs.Config.Extra, so /metrics
// serves them next to the engine's hbat_sweep_* families in one
// exposition.
//
// Routes are recorded as templates ("/v1/jobs/{id}/events"), never raw
// paths, so label cardinality is bounded by the API surface, not by
// job-id traffic. The tenant label is resolved by the handler (a body
// tenant overrides the header, exactly as admission sees it) and
// published back to the middleware through a per-request holder in the
// context; the same holder carries the job's trace id into the access
// log, so one grep by trace_id crosses the client/server boundary.
// Tenants are client-chosen, so the label is capped: the first
// maxTenantLabels distinct tenants keep their names, later ones export
// as tenant="other".
package transport

import (
	"context"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hbat/api"
	"hbat/internal/obs"
	"hbat/internal/store"
)

// maxTenantLabels is how many distinct tenants get their own label
// value, per process; otherTenant is the value the rest share. With the
// dozen route templates that bounds every tenant-labelled family.
const (
	maxTenantLabels = 64
	otherTenant     = "other"
)

// redBounds are the request-duration histogram's upper bounds in
// milliseconds: roughly exponential from sub-millisecond pings to
// multi-second simulation-heavy polls.
var redBounds = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// reqInfo is the per-request holder the middleware shares with the
// handler: the middleware injects it before routing, the handler fills
// in what only it can resolve (tenant, trace id), and the middleware
// reads it back when the response is done.
type reqInfo struct {
	mu     sync.Mutex
	tenant string
	trace  string
}

type reqInfoKey struct{}

// annotate publishes the request's resolved tenant and trace id to the
// middleware's holder, if one is present. Empty arguments leave the
// corresponding field untouched.
func annotate(ctx context.Context, tenant, trace string) {
	ri, ok := ctx.Value(reqInfoKey{}).(*reqInfo)
	if !ok {
		return
	}
	ri.mu.Lock()
	if tenant != "" {
		ri.tenant = tenant
	}
	if trace != "" {
		ri.trace = trace
	}
	ri.mu.Unlock()
}

// routeTemplate maps a request path to its bounded route label.
func routeTemplate(path string) string {
	switch {
	case path == api.PathPing:
		return api.PathPing
	case path == api.PathJobs:
		return api.PathJobs
	case path == api.PathManifest:
		return api.PathManifest
	case path == api.PathWorkers:
		return api.PathWorkers
	case strings.HasPrefix(path, api.PathResults):
		return api.PathResults + "{speckey}"
	case strings.HasPrefix(path, api.PathJobs+"/"):
		rest := strings.TrimPrefix(path, api.PathJobs+"/")
		_, sub, _ := strings.Cut(rest, "/")
		switch sub {
		case "":
			return api.PathJobs + "/{id}"
		case "events":
			return api.PathJobs + "/{id}/events"
		case "spans":
			return api.PathJobs + "/{id}/spans"
		}
	}
	return "other"
}

// statusWriter captures the response status code while preserving the
// Flusher the SSE handler depends on.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// redKey identifies one RED series.
type redKey struct {
	route  string
	tenant string
}

// redEntry accumulates one (route, tenant) pair's request counts by
// status class and its duration histogram.
type redEntry struct {
	byClass map[string]uint64 // "2xx" | "3xx" | "4xx" | "5xx"
	counts  []uint64          // len(redBounds)+1; last is +Inf
	sum     float64           // milliseconds
	count   uint64
}

// red is the middleware's request accumulator, shared by every
// request.
type red struct {
	mu      sync.Mutex
	entries map[redKey]*redEntry
	// tenants are the tenants exported under their own name.
	tenants map[string]struct{}
}

// labelLocked returns the label value tenant exports under: its own
// name while it is one of the first maxTenantLabels seen, otherTenant
// after. The caller holds m.mu.
func (m *red) labelLocked(tenant string) string {
	if _, ok := m.tenants[tenant]; ok {
		return tenant
	}
	if len(m.tenants) >= maxTenantLabels {
		return otherTenant
	}
	if m.tenants == nil {
		m.tenants = make(map[string]struct{})
	}
	m.tenants[tenant] = struct{}{}
	return tenant
}

// observe records one finished request under its route template,
// tenant, and status class ("2xx".."5xx").
func (m *red) observe(route, tenant, class string, ms float64) {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[redKey]*redEntry)
	}
	k := redKey{route: route, tenant: m.labelLocked(tenant)}
	e := m.entries[k]
	if e == nil {
		e = &redEntry{
			byClass: make(map[string]uint64, 4),
			counts:  make([]uint64, len(redBounds)+1),
		}
		m.entries[k] = e
	}
	e.byClass[class]++
	slot := len(redBounds)
	for i, b := range redBounds {
		if ms <= float64(b) {
			slot = i
			break
		}
	}
	e.counts[slot]++
	e.sum += ms
	e.count++
	m.mu.Unlock()
}

// middleware wraps next with RED instrumentation and an access log.
// Every response is counted under its route template, tenant, and
// status class; the duration lands in the per-route histogram; and one
// Info-level access-log record is emitted through logger — which the
// binaries build from the shared -log-level/-log-format flags, so
// `-log-level warn` silences the access log exactly like every other
// binary's chatter.
func (m *red) middleware(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3
		route := routeTemplate(r.URL.Path)
		ri.mu.Lock()
		ten, trace := ri.tenant, ri.trace
		ri.mu.Unlock()
		if ten == "" {
			// Handlers that never resolve a tenant (ping, manifest,
			// results, a job refused for its tenant) label by the
			// header when it is a well-formed name.
			if ten = r.Header.Get(api.TenantHeader); !store.Tenant(ten) {
				ten = "default"
			}
		}
		class := "5xx"
		switch sw.code / 100 {
		case 2:
			class = "2xx"
		case 3:
			class = "3xx"
		case 4:
			class = "4xx"
		}
		m.observe(route, ten, class, ms)
		if ctx := r.Context(); logger.Enabled(ctx, slog.LevelInfo) {
			attrs := [...]slog.Attr{
				slog.String("method", r.Method), slog.String("route", route), slog.String("tenant", ten),
				slog.Int("status", sw.code), slog.Float64("wall_ms", ms),
				slog.String("trace_id", trace),
			}
			n := len(attrs)
			if trace == "" {
				n--
			}
			logger.LogAttrs(ctx, slog.LevelInfo, "http request", attrs[:n]...)
		}
	})
}

// families exports the accumulator's request counters and duration
// histograms as exposition families. Series are emitted in sorted label
// order so scrapes are stable.
func (m *red) families() []obs.Family {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]redKey, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].tenant < keys[j].tenant
	})
	req := obs.Family{
		Name: "hbat_fabric_requests", Kind: "counter",
		Help: "Requests served by the v1 job API, by route template, tenant, and status class.",
	}
	dur := obs.Family{
		Name: "hbat_fabric_request_duration_ms", Kind: "histogram",
		Help: "Request wall time in milliseconds, by route template and tenant.",
	}
	for _, k := range keys {
		e := m.entries[k]
		classes := make([]string, 0, len(e.byClass))
		for c := range e.byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			req.Series = append(req.Series, obs.Series{
				Labels: []obs.Label{{Name: "route", Value: k.route}, {Name: "tenant", Value: k.tenant}, {Name: "class", Value: c}},
				Value:  float64(e.byClass[c]),
			})
		}
		counts := make([]uint64, len(e.counts))
		copy(counts, e.counts)
		dur.Hists = append(dur.Hists, obs.HistSeries{
			Labels: []obs.Label{{Name: "route", Value: k.route}, {Name: "tenant", Value: k.tenant}},
			Bounds: redBounds,
			Counts: counts,
			Sum:    e.sum,
			Count:  e.count,
		})
	}
	return []obs.Family{req, dur}
}

// perTenant builds a gauge with one series per tenant label of vals, in
// sorted order so scrapes are stable; tenants past m's label cap sum
// into otherTenant. An empty vals yields a zero "default" series: a
// family with no series is not a valid exposition.
func perTenant[N int | int64](m *red, name, help string, vals map[string]N) obs.Family {
	fam := obs.Family{Name: name, Kind: "gauge", Help: help}
	byLabel := make(map[string]float64, len(vals))
	m.mu.Lock()
	for _, t := range slices.Sorted(maps.Keys(vals)) {
		byLabel[m.labelLocked(t)] += float64(vals[t])
	}
	m.mu.Unlock()
	for _, l := range slices.Sorted(maps.Keys(byLabel)) {
		fam.Series = append(fam.Series, obs.Series{
			Labels: []obs.Label{{Name: "tenant", Value: l}},
			Value:  byLabel[l],
		})
	}
	if len(fam.Series) == 0 {
		fam.Series = []obs.Series{{Labels: []obs.Label{{Name: "tenant", Value: "default"}}}}
	}
	return fam
}

// MetricsFamilies exports the front end's RED counters and its open
// jobs per tenant.
func (f *Front) MetricsFamilies() []obs.Family {
	f.mu.Lock()
	open := perTenant(&f.red, "hbat_fabric_jobs_open",
		"Open (admitted, not yet finished) jobs per tenant.", f.byTenant)
	f.mu.Unlock()
	return append(f.red.families(), open)
}

// MetricsFamilies exports the front end's families plus the worker
// role's live-state gauges — hand it to obs.Config.Extra.
func (s *Service) MetricsFamilies() []obs.Family {
	depth := obs.Family{
		Name: "hbat_fabric_queue_depth", Kind: "gauge",
		Help: "Queued spec tasks per worker shard.",
	}
	for i, q := range s.pool.queues {
		depth.Series = append(depth.Series, obs.Series{
			Labels: []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}},
			Value:  float64(len(q)),
		})
	}
	return append(s.Front.MetricsFamilies(), depth,
		perTenant(&s.red, "hbat_fabric_store_tenant_bytes",
			"Live result-store bytes attributed to each tenant.", s.pool.store.Tenants()),
		obs.Scalar("hbat_fabric_store_quota_bytes", "gauge",
			"Configured per-tenant result-store quota in bytes (0 = unlimited).",
			float64(s.pool.store.TenantQuota())),
		obs.Scalar("hbat_fabric_span_subscribers", "gauge",
			"Live span-feed subscriptions (one per open /events stream when tracing is on).",
			float64(s.pool.spans.Subscribers())))
}
