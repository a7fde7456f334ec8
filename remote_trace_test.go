package hbat

// The distributed-tracing acceptance test: a job submitted through
// api.Client under a client root span, against a live (in-process)
// hbatd service, produces a client span journal and a server span
// journal sharing one trace id, with the server's job root parented
// under the client's span and the engine's run tree under the job — and
// the two journals merge, as `hbat-trace remote -client` merges them,
// into one valid Perfetto timeline.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
	"hbat/internal/store"
	"hbat/internal/transport"
)

func TestFabricTraceEndToEnd(t *testing.T) {
	ctx := context.Background()

	// Server side: a fabric service whose engine shares the service
	// tracer, exactly as `hbatd -spans` wires it.
	srvTr := spans.New()
	eng := engine.New()
	eng.SetSpans(srvTr)
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := transport.New(transport.Config{Engine: eng, Store: st, Workers: 2, Spans: srvTr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	// Client side: a tracer journaled to disk the way a -spans CLI run
	// is. The client opens its root span under a fresh trace context
	// and sends that context with the job.
	cliJournal := filepath.Join(t.TempDir(), "client-spans.jsonl")
	cliTr := spans.New()
	if err := cliTr.OpenJournal(cliJournal); err != nil {
		t.Fatal(err)
	}
	tc := spans.NewTraceContext()
	root := cliTr.Start(cliTr.NewTraceWith(tc.TraceID, tc.SpanID, ""), nil, "client_job")

	c := api.NewClient(ts.URL)
	acc, err := c.Submit(ctx, api.JobRequest{
		Specs:       []api.SimOptions{{CommonOptions: api.CommonOptions{Scale: "test"}, Workload: "compress", Design: "T4"}},
		Traceparent: tc.Traceparent(),
	})
	if err != nil {
		t.Fatal(err)
	}
	js, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Result(ctx, js.Specs[0].SpecKey); err != nil {
		t.Fatal(err)
	}
	root.End()
	if acc.TraceID != tc.TraceID {
		t.Fatalf("job %s trace id = %q, want the client's %q", acc.ID, acc.TraceID, tc.TraceID)
	}
	if err := cliTr.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Both journals, read back the way hbat-trace remote reads them.
	raw, err := c.Spans(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	srvHdr, srvSpans, err := spans.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("server journal: %v", err)
	}
	cf, err := os.Open(cliJournal)
	if err != nil {
		t.Fatal(err)
	}
	cliHdr, cliSpans, err := spans.ReadJournal(cf)
	cf.Close()
	if err != nil {
		t.Fatalf("client journal: %v", err)
	}

	// One shared trace id on every span of both processes.
	for _, d := range append(append([]spans.SpanData{}, cliSpans...), srvSpans...) {
		if d.TraceW3C != tc.TraceID {
			t.Fatalf("span %q trace_id = %q, want %q", d.Name, d.TraceW3C, tc.TraceID)
		}
	}

	// Parent/child linkage: client_job <- server job <- run.
	var cliRoot, srvJob, srvRun *spans.SpanData
	for i := range cliSpans {
		if cliSpans[i].Name == "client_job" && cliSpans[i].Parent == 0 {
			cliRoot = &cliSpans[i]
		}
	}
	for i := range srvSpans {
		switch {
		case srvSpans[i].Name == "job" && srvSpans[i].Parent == 0:
			srvJob = &srvSpans[i]
		case srvSpans[i].Name == "run" && srvSpans[i].Parent == 0:
			srvRun = &srvSpans[i]
		}
	}
	if cliRoot == nil || srvJob == nil || srvRun == nil {
		t.Fatalf("missing roots: client_job %v, server job %v, server run %v",
			cliRoot != nil, srvJob != nil, srvRun != nil)
	}
	if cliRoot.SpanW3C == "" || srvJob.RemoteParent != cliRoot.SpanW3C {
		t.Fatalf("server job parented under %q, want client span %q", srvJob.RemoteParent, cliRoot.SpanW3C)
	}
	if srvRun.RemoteParent != srvJob.SpanW3C {
		t.Fatalf("server run parented under %q, want job span %q", srvRun.RemoteParent, srvJob.SpanW3C)
	}
	// The server's queue and simulate phases made it to its journal.
	names := map[string]bool{}
	for _, d := range srvSpans {
		names[d.Name] = true
	}
	for _, want := range []string{"queue_wait", "simulate"} {
		if !names[want] {
			t.Errorf("server journal missing %q span", want)
		}
	}

	// The merged timeline renders, links the processes, and is valid
	// trace-event JSON.
	var buf bytes.Buffer
	mst, err := spans.WriteMergedPerfetto(&buf, []spans.JournalPart{
		{Label: "client", Header: cliHdr, Spans: cliSpans},
		{Label: "hbatd", Header: srvHdr, Spans: srvSpans},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mst.Linked < 1 {
		t.Fatalf("merged timeline linked %d roots across processes, want >= 1", mst.Linked)
	}
	if mst.Spans[0] != len(cliSpans) || mst.Spans[1] != len(srvSpans) {
		t.Fatalf("merge stats %v, want [%d %d]", mst.Spans, len(cliSpans), len(srvSpans))
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged timeline is not valid trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(cliSpans)+len(srvSpans) {
		t.Fatalf("merged timeline has %d events for %d spans", len(doc.TraceEvents), len(cliSpans)+len(srvSpans))
	}
}
