// Package api defines the versioned wire contract of the hbat sweep
// fabric (cmd/hbatd): the request and response types of the v1 job
// API, the canonical rendered result artifact, and a thin HTTP client.
//
// The package is importable by external tools and deliberately depends
// on the standard library only. Versioning rules: the v1 types are
// append-only — new optional fields may be added, existing fields are
// never renamed, retyped, or removed, and response objects carry an
// "api" discriminator so clients can reject a server speaking a
// different major version. A breaking change mints /v2 paths and new
// types next to these.
package api

// Version is the wire-contract version every v1 response carries in
// its "api" field.
const Version = "v1"

// Paths of the v1 job API. {id} and {speckey} are path suffixes, not
// templates: clients append the identifier directly.
const (
	PathPing = "/v1/ping"
	PathJobs = "/v1/jobs"
	// PathResults serves GET /v1/results/{speckey} from the answering
	// daemon's own result store, with one contract in both roles: the
	// artifact with its SHA-256 as a strong ETag when the store holds
	// it, else 404. A spec whose SpecStatus has no ResultURL (its store
	// refused the bytes; Error says why) was never filed and is a 404;
	// so is any key after a restart without a persistent store or once
	// the store has evicted it. Nothing is fetched on a miss in either
	// role: a client that finds a result gone resubmits the spec.
	PathResults  = "/v1/results/"
	PathManifest = "/v1/manifest"
	// PathWorkers is the worker registry of an hbatd coordinator (hbatd
	// -worker URL,...): GET lists the fleet's workers and their
	// probe-driven states, POST registers one at runtime (the static
	// -worker list seeds it). An hbatd in the worker role does not serve
	// this path.
	PathWorkers = "/v1/workers"
)

// WaitParam names the query parameter that turns GET /v1/jobs/{id}
// from a poll into a blocking status: GET /v1/jobs/{id}?wait=30s. (An
// append-only addition to v1: a request without it is served exactly as
// before, and a server that predates it ignores it and answers at once.)
//
// Grammar: a non-negative Go duration — a decimal number with a unit
// suffix, "500ms", "2.5s", "1m"; "0" asks for no hold. Anything else
// ("abc", "-1s", "30") is refused 400 at once, whatever the job's state.
// The server caps the hold at 30 s; a larger value is clamped, not
// refused.
//
// A job that is already done or failed is answered at once. Otherwise
// the request parks and ends in one of three ways: the job's last spec
// finishes, and the answer is the terminal status, sent at that instant;
// the hold (or the cap) elapses, and the answer is 200 with the current,
// still non-terminal status; or the client goes away, and nothing is
// sent. A server may therefore answer early with a non-terminal status,
// and a client that wants the final one must loop until State is "done"
// or "failed" — Client.Wait does, with a floor between requests so a
// server that ignores the parameter is not spun on.
//
// A job id stops resolving (404 "no job") when the daemon restarts, and
// when enough later jobs have finished to push a finished job out of the
// server's bounded tail (the last few hundred, and however many there
// are, every job that finished under 100 ms ago: a status request that
// follows its submission directly finds the job at any job rate). A
// client parked on the job when it finishes always gets the terminal
// status; one that asks later and finds the id gone should resubmit the
// same specs — the result store outlives both the job table and a
// restart, so the resubmission is answered from it. A job the store
// answers whole needs no status request at all: it is done before its
// 202 is written, and the 202 carries its status (JobAccepted.Status),
// which Client.Wait returns as is. Every terminal status, in a 202 or
// in answer to this request, carries each done spec's artifact
// (SpecStatus.Artifact) when they fit in MaxInlineArtifacts together,
// which Client.Result returns without a request.
const WaitParam = "wait"

// MaxInlineArtifacts is the most artifact bytes, summed over a job's
// specs, a terminal job status carries in SpecStatus.Artifact: a
// 13-design sweep is ~8 KiB. A job over it gets its status alone, and
// its client fetches each artifact from PathResults.
const MaxInlineArtifacts = 64 << 10

// TenantHeader names the request header carrying the caller's tenant
// identity. A "tenant" field in the JobRequest body takes precedence;
// with neither, the server files the job under the "default" tenant.
// A tenant is 1-64 characters of [A-Za-z0-9._-]; a job naming anything
// else is refused 400. The first 64 distinct tenants a daemon sees keep
// their own tenant label in its metrics, later ones share "other".
const TenantHeader = "X-Hbat-Tenant"

// TraceparentHeader names the W3C trace-context header a job
// submission may carry ("00-<32 hex trace id>-<16 hex span id>-01").
// A "traceparent" field in the JobRequest body takes precedence; with
// neither, the server mints a fresh trace id so every job's spans are
// retrievable. The accepted job's trace id is echoed in
// JobAccepted.TraceID and JobStatus.TraceID, and the job's server-side
// spans are served by GET /v1/jobs/{id}/spans as a span-journal
// (JSON-lines) document.
const TraceparentHeader = "traceparent"

// CommonOptions is the option set shared by every simulation entry
// point — one run, a grid, or a remote job: the workload scale, the
// seed for randomized structures, and the two-phase fast-forward
// length. The hbat facade embeds it in both Options and
// ExperimentOptions, and the service unmarshals it inside SimOptions,
// so client and server marshal the same type.
type CommonOptions struct {
	// Scale is "test", "small", or "full" (default "small").
	Scale string `json:"scale,omitempty"`
	// Seed drives every randomized structure (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// FastForward, when positive, executes the first N instructions
	// functionally and measures only the remainder cycle-accurately.
	FastForward uint64 `json:"fast_forward,omitempty"`
	// FFwdEngine is accepted and ignored; output was always
	// byte-identical whichever functional warm-up engine it named. The
	// field stays under this package's append-only rule.
	FFwdEngine string `json:"ffwd_engine,omitempty"`
}

// SimOptions names one simulation on the wire: every outcome-affecting
// knob of a run and nothing else (observation-only options — pipeline
// traces, interval sampling, progress callbacks — are local concerns
// and never cross the wire). Two SimOptions that normalize to the same
// spec share one spec key, one memoized result, and one stored
// artifact, whoever submits them.
type SimOptions struct {
	CommonOptions

	// Workload is one of the Table 3 benchmarks (default "compress").
	Workload string `json:"workload,omitempty"`
	// Design is a Table 2 mnemonic (default "T4").
	Design string `json:"design,omitempty"`
	// PageSize is the virtual-memory page size (default 4096).
	PageSize uint64 `json:"page_size,omitempty"`
	// InOrder selects the in-order issue model.
	InOrder bool `json:"in_order,omitempty"`
	// FewRegisters recompiles the workload for 8 int / 8 fp registers.
	FewRegisters bool `json:"few_registers,omitempty"`
	// VirtualCache switches to a virtually-indexed data cache.
	VirtualCache bool `json:"virtual_cache,omitempty"`
	// ContextSwitchEvery flushes translation state every N committed
	// instructions when non-zero.
	ContextSwitchEvery uint64 `json:"context_switch_every,omitempty"`
	// MaxInsts optionally caps committed instructions.
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// Lockstep runs the golden-model differential checker alongside
	// the pipeline.
	Lockstep bool `json:"lockstep,omitempty"`
}

// Grid is a product-form job body: the cross of Workloads × Designs,
// each cell inheriting Template's machine variant and common options.
// Nil Workloads means all ten benchmarks; nil Designs means all
// thirteen Table 2 designs (Template's own Workload/Design fields are
// ignored).
type Grid struct {
	Workloads []string   `json:"workloads,omitempty"`
	Designs   []string   `json:"designs,omitempty"`
	Template  SimOptions `json:"template"`
}

// JobRequest is the body of POST /v1/jobs: explicit specs, a grid, or
// both (the grid expands first, explicit specs append after).
type JobRequest struct {
	// Tenant overrides the X-Hbat-Tenant header.
	Tenant string       `json:"tenant,omitempty"`
	Specs  []SimOptions `json:"specs,omitempty"`
	Grid   *Grid        `json:"grid,omitempty"`
	// Traceparent, when set, carries the submitting client's W3C trace
	// context ("00-<trace>-<span>-01"): the server parents the job's
	// span tree under the client span and stamps the shared trace id
	// into its own spans, logs, and manifest records. Overrides the
	// traceparent header.
	Traceparent string `json:"traceparent,omitempty"`
}

// JobAccepted is the 202 response to a submitted job.
type JobAccepted struct {
	API    string `json:"api"`
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Total  int    `json:"total"`
	// SpecKeys are the content-address keys of the job's specs in
	// submission order; each resolves under /v1/results/ once done.
	SpecKeys  []string `json:"spec_keys"`
	StatusURL string   `json:"status_url"`
	EventsURL string   `json:"events_url"`
	// TraceID is the job's 32-hex cross-process trace id: the one the
	// client sent via traceparent, or a server-minted one. SpansURL
	// serves the job's server-side span journal (JSON lines) once spans
	// exist; empty when the server runs without span tracing.
	TraceID  string `json:"trace_id,omitempty"`
	SpansURL string `json:"spans_url,omitempty"`
	// Status is the job's terminal status when intake left it nothing
	// to run — the store answered every spec — exactly what GET
	// StatusURL would serve. It is absent for a job with an open spec
	// and from a server that predates it; either way the job is waited
	// for as before. Client.Wait answers a job its own Submit saw
	// finish from this field, without a request.
	Status *JobStatus `json:"status,omitempty"`
	// Artifacts is never populated: Status carries each artifact in its
	// spec's SpecStatus.Artifact. The field stays under this package's
	// append-only rule.
	Artifacts [][]byte `json:"artifacts,omitempty"`
}

// Spec states reported by SpecStatus.State, and job states reported by
// JobStatus.State ("failed" means at least one spec failed; the rest
// still complete).
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// SpecStatus is one spec's progress inside a job.
type SpecStatus struct {
	SpecKey string `json:"spec_key"`
	// Spec is the human-readable spec label
	// (workload/design/mode/pages/budget).
	Spec  string `json:"spec"`
	State string `json:"state"`
	// Cached reports the result was served from an engine's RunSpec
	// memo instead of being simulated.
	Cached bool `json:"cached,omitempty"`
	// StoreHit reports that the answering daemon's own result store
	// held the artifact when the job was submitted, in either role: the
	// spec was finished at intake and reached no engine and no worker.
	// (A worker also sets it for a key another job stored between this
	// job's intake and the spec's turn in its queue.)
	StoreHit bool    `json:"store_hit,omitempty"`
	WallMs   float64 `json:"wall_ms,omitempty"`
	Error    string  `json:"error,omitempty"`
	// ResultURL serves the rendered artifact once State is "done" and
	// the daemon's store has filed it (empty, with Error set, when the
	// store refused it); SHA256 is its content hash (the ETag, unquoted).
	ResultURL string `json:"result_url,omitempty"`
	SHA256    string `json:"sha256,omitempty"`
	// Worker is the fleet worker that produced (or cached) the result,
	// set by a coordinator; single-node services leave it empty, and so
	// does a coordinator for a store hit, which it dispatched nowhere.
	Worker string `json:"worker,omitempty"`
	// Attempts counts dispatches of this spec, set by a coordinator: 1
	// for a first-try success, more when the spec was retried on
	// another worker after a failure or timeout, 0 for a store hit.
	Attempts int `json:"attempts,omitempty"`
	// Artifact is the bytes GET ResultURL would serve, carried in the
	// spec's "spec" event and in a terminal job status (a 202's Status,
	// or GET /v1/jobs/{id} once the job is done or failed) when its
	// specs' artifacts total at most MaxInlineArtifacts. Client.Result
	// answers from an artifact that hashes to SHA256.
	Artifact []byte `json:"artifact,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	API    string       `json:"api"`
	ID     string       `json:"id"`
	Tenant string       `json:"tenant"`
	State  string       `json:"state"`
	Done   int          `json:"done"`
	Total  int          `json:"total"`
	Specs  []SpecStatus `json:"specs"`
	// TraceID is the job's cross-process trace id (see
	// JobAccepted.TraceID) — a curl user correlates a job to its span
	// journal and log records with this field alone.
	TraceID string `json:"trace_id,omitempty"`
}

// Event is one SSE message on GET /v1/jobs/{id}/events. Type "spec"
// carries a completed spec's status, "span" streams the end of a live
// run-root span of one of the job's own runs (when the daemon traces
// spans; another job's runs never appear, whichever tenant submitted
// it), and "done" closes the stream with the job's final counts.
type Event struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Spec is set for "spec" events.
	Spec *SpecStatus `json:"spec,omitempty"`
	// Spans is never populated; the field stays under this package's
	// append-only rule.
	Spans []Span `json:"spans,omitempty"`
	// Span is set for "span" events.
	Span *Span `json:"span,omitempty"`
	// Done/Total are set for "spec" and "done" events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// Span is a finished spans span on the wire.
type Span struct {
	Name  string            `json:"name"`
	DurUS int64             `json:"dur_us"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Result is the canonical rendered artifact of one simulated spec: the
// deterministic outcome fields only (no wall times, no cache
// dispositions), so the same spec renders byte-identical artifacts
// whether simulated locally through the facade or by any hbatd
// worker. Served by GET
// /v1/results/{speckey} with its SHA-256 as the ETag.
type Result struct {
	API     string `json:"api"`
	SpecKey string `json:"spec_key"`
	// Spec is the human-readable spec label.
	Spec string `json:"spec"`

	Design   string `json:"design"`
	Workload string `json:"workload"`

	Cycles        int64  `json:"cycles"`
	Instructions  uint64 `json:"instructions"`
	Loads         uint64 `json:"loads"`
	Stores        uint64 `json:"stores"`
	FastForwarded uint64 `json:"fast_forwarded,omitempty"`

	IPC            float64 `json:"ipc"`
	IssueIPC       float64 `json:"issue_ipc"`
	MemPerCycle    float64 `json:"mem_per_cycle"`
	BranchPredRate float64 `json:"branch_pred_rate"`

	TLBLookups    uint64 `json:"tlb_lookups"`
	TLBMisses     uint64 `json:"tlb_misses"`
	TLBWalks      uint64 `json:"tlb_walks"`
	Piggybacks    uint64 `json:"piggybacks"`
	ShieldHits    uint64 `json:"shield_hits"`
	NoPortRetries uint64 `json:"no_port_retries"`
	StatusWrites  uint64 `json:"status_writes"`

	FetchStallCycles  int64 `json:"fetch_stall_cycles"`
	DispatchTLBStalls int64 `json:"dispatch_tlb_stalls"`
	DispatchROBFull   int64 `json:"dispatch_rob_full"`
	DispatchLSQFull   int64 `json:"dispatch_lsq_full"`
}

// Worker states reported by Worker.State, driven by the coordinator's
// periodic /ready probes: "up" serves new work, "draining" finishes
// what it has but is not dispatched to, "down" failed consecutive
// probes and is excluded until it answers again.
const (
	WorkerUp       = "up"
	WorkerDraining = "draining"
	WorkerDown     = "down"
)

// Worker is one fleet member's registration and probe state, served by
// GET /v1/workers on a coordinator.
type Worker struct {
	// Addr is the worker's base URL (e.g. "http://127.0.0.1:9191").
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Tool is the worker's self-reported binary name from its
	// /v1/ping (normally "hbatd"); empty until the first successful
	// ping.
	Tool string `json:"tool,omitempty"`
	// Fails counts consecutive failed probes (reset on success).
	Fails int `json:"fails,omitempty"`
	// LastProbeMs is how many milliseconds ago the worker was last
	// probed (-1 before the first probe).
	LastProbeMs int64 `json:"last_probe_ms"`
}

// FleetStatus is the GET /v1/workers response.
type FleetStatus struct {
	API     string   `json:"api"`
	Workers []Worker `json:"workers"`
}

// WorkerRegistration is the POST /v1/workers body: it adds one worker
// address to a running coordinator's fleet (idempotent for an address
// already registered).
type WorkerRegistration struct {
	Addr string `json:"addr"`
}

// Error is the JSON error body every non-2xx v1 response carries. It
// implements the error interface so clients can surface it directly.
type Error struct {
	API     string `json:"api"`
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Message }
