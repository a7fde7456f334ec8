// Command hbat-trace captures a workload's data-reference trace to a
// compact binary file, prints a trace's summary, replays a trace
// through the fully-associative TLB models of Figure 6, or fetches a
// remote job's span journal from an hbatd service and renders a
// merged cross-process Perfetto timeline.
//
// Usage:
//
//	hbat-trace capture -workload compress -o compress.hbt [-scale small] [-max N]
//	hbat-trace info    -i compress.hbt
//	hbat-trace replay  -i compress.hbt [-sizes 4,8,16,32,64,128]
//	hbat-trace remote  -addr http://127.0.0.1:9090 -job j0123456789abcdef \
//	                   [-client client-spans.jsonl] [-o merged.perfetto.json]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/obs"
	"hbat/internal/prog"
	"hbat/internal/spans"
	"hbat/internal/tlb"
	"hbat/internal/trace"
	"hbat/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hbat-trace: "+format+"\n", args...)
	os.Exit(1)
}

// setupObs wires the shared observability flags after a subcommand's
// FlagSet parsed: structured logs always, and — with -obs — the
// metrics/health/pprof server (no sweep engine here, so /metrics
// carries process self-metrics and /debug/pprof serves the profiler).
func setupObs(ctx context.Context, f *obs.Flags) *slog.Logger {
	logger, srv, err := f.Setup(ctx, os.Stderr, nil)
	if err != nil {
		fatalf("%v", err)
	}
	_ = srv // closed on process exit
	return logger
}

// cmdSpan opens one root span covering a subcommand's work (there is
// no sweep engine here, so the subcommand itself is the traced unit)
// and returns a finish func that ends it and exports the -spans
// outputs.
func cmdSpan(f *obs.Flags, name, subject string) func() {
	tr := f.Tracer()
	sp := tr.Start(tr.NewTrace(), nil, name)
	if sp != nil {
		sp.SetAttr("subject", subject)
	}
	return func() {
		sp.End()
		if _, err := f.FinishSpans(); err != nil {
			fatalf("spans: %v", err)
		}
	}
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: hbat-trace capture|info|replay|remote [flags]")
	}
	// Ctrl-C cancels the capture or replay loop promptly; fatalf exits
	// non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch os.Args[1] {
	case "capture":
		capture(ctx, os.Args[2:])
	case "info":
		info(ctx, os.Args[2:])
	case "replay":
		replay(ctx, os.Args[2:])
	case "remote":
		remote(ctx, os.Args[2:])
	default:
		fatalf("unknown subcommand %q", os.Args[1])
	}
}

// remote fetches a job's server-side span journal from a live hbatd
// (GET /v1/jobs/{id}/spans), optionally reads the submitting client's
// local journal next to it, and renders everything as one merged
// Perfetto timeline: the client's root span with the
// server's job > queue_wait and run > checkpoint > simulate trees
// nested at true wall-clock offsets, linked by the shared trace id.
func remote(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:9090", "hbatd base URL")
	jobID := fs.String("job", "", "job id whose spans to fetch (required)")
	clientJournal := fs.String("client", "", "local client span journal (.jsonl) to merge alongside the server's")
	out := fs.String("o", "merged.perfetto.json", "output Perfetto trace-event JSON")
	tenantF := fs.String("tenant", "", "tenant sent with the fetch")
	obsFlags := obs.AddFlags(fs)
	fs.Parse(args)
	logger := setupObs(ctx, obsFlags)
	if *jobID == "" {
		fatalf("remote: -job is required")
	}
	c := api.NewClient(*addr)
	c.Tenant = *tenantF
	raw, err := c.Spans(ctx, *jobID)
	if err != nil {
		fatalf("remote: fetch spans: %v", err)
	}
	srvHdr, srvSpans, err := spans.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		fatalf("remote: server journal: %v", err)
	}
	var parts []spans.JournalPart
	if *clientJournal != "" {
		f, err := os.Open(*clientJournal)
		if err != nil {
			fatalf("remote: %v", err)
		}
		hdr, ds, err := spans.ReadJournal(f)
		f.Close()
		if err != nil {
			fatalf("remote: client journal: %v", err)
		}
		parts = append(parts, spans.JournalPart{Label: "client", Header: hdr, Spans: ds})
	}
	parts = append(parts, spans.JournalPart{Label: "hbatd", Header: srvHdr, Spans: srvSpans})
	f, err := os.Create(*out)
	if err != nil {
		fatalf("remote: %v", err)
	}
	st, err := spans.WriteMergedPerfetto(f, parts)
	if err != nil {
		f.Close()
		fatalf("remote: merge: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("remote: %v", err)
	}
	logger.Debug("merged timeline written", "job", *jobID, "path", *out, "linked_roots", st.Linked)
	for i, p := range parts {
		fmt.Printf("%-6s %d spans\n", p.Label, st.Spans[i])
	}
	fmt.Printf("linked %d root span(s) across processes -> %s\n", st.Linked, *out)
	if len(parts) > 1 && st.Linked == 0 {
		fatalf("remote: journals share no parent/child link — is %s the job the client journal submitted?", *jobID)
	}
}

func capture(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	wl := fs.String("workload", "compress", "workload to trace")
	out := fs.String("o", "", "output trace file (required)")
	scale := fs.String("scale", "small", "workload scale")
	pageSize := fs.Uint64("pagesize", 4096, "page size recorded in the header")
	maxRefs := fs.Uint64("max", 0, "cap on captured references (0 = all)")
	fewRegs := fs.Bool("fewregs", false, "build for 8 int / 8 fp registers")
	obsFlags := obs.AddFlags(fs)
	fs.Parse(args)
	logger := setupObs(ctx, obsFlags)
	finish := cmdSpan(obsFlags, "capture", *wl)
	defer finish()
	if *out == "" {
		fatalf("capture: -o is required")
	}
	w, err := workload.ByName(*wl)
	if err != nil {
		fatalf("%v", err)
	}
	budget := prog.Budget32
	if *fewRegs {
		budget = prog.Budget8
	}
	sc, err := engine.ParseScale(*scale)
	if err != nil {
		fatalf("capture: %v", err)
	}
	p, err := w.Build(budget, sc)
	if err != nil {
		fatalf("%v", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	n, err := trace.CaptureContext(ctx, p, *pageSize, f, *maxRefs)
	if err != nil {
		fatalf("capture: %v", err)
	}
	logger.Debug("capture finished", "workload", *wl, "refs", n, "path", *out)
	st, _ := f.Stat()
	fmt.Printf("captured %d references of %s to %s", n, *wl, *out)
	if st != nil && n > 0 {
		fmt.Printf(" (%.2f bytes/ref)", float64(st.Size())/float64(n))
	}
	fmt.Println()
}

func openTrace(path string) *trace.Reader {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		fatalf("%v", err)
	}
	return r
}

func info(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	obsFlags := obs.AddFlags(fs)
	fs.Parse(args)
	setupObs(ctx, obsFlags)
	finish := cmdSpan(obsFlags, "info", *in)
	defer finish()
	if *in == "" {
		fatalf("info: -i is required")
	}
	r := openTrace(*in)
	hdr := r.Header()
	var refs, writes uint64
	pages := map[uint64]struct{}{}
	bits := uint(0)
	for ps := hdr.PageSize; ps > 1; ps >>= 1 {
		bits++
	}
	if err := r.ForEach(func(rec trace.Record) error {
		if refs&65535 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		refs++
		if rec.Write {
			writes++
		}
		pages[rec.Addr>>bits] = struct{}{}
		return nil
	}); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("workload   %s\npage size  %d\nreferences %d (%d writes)\npages      %d (%.1f KB footprint)\n",
		hdr.Workload, hdr.PageSize, refs, writes,
		len(pages), float64(len(pages))*float64(hdr.PageSize)/1024)
}

func replay(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	sizesArg := fs.String("sizes", "4,8,16,32,64,128", "comma-separated TLB sizes")
	seed := fs.Uint64("seed", 1, "seed for random replacement")
	obsFlags := obs.AddFlags(fs)
	fs.Parse(args)
	logger := setupObs(ctx, obsFlags)
	finish := cmdSpan(obsFlags, "replay", *in)
	defer finish()
	if *in == "" {
		fatalf("replay: -i is required")
	}
	var sizes []int
	for _, s := range strings.Split(*sizesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fatalf("bad size %q", s)
		}
		sizes = append(sizes, n)
	}
	r := openTrace(*in)
	hdr := r.Header()
	bits := uint(0)
	for ps := hdr.PageSize; ps > 1; ps >>= 1 {
		bits++
	}
	sims := make([]*tlb.MissRateSim, len(sizes))
	for i, n := range sizes {
		sims[i] = tlb.NewMissRateSim(n, tlb.ReplacementFor(n), *seed)
	}
	var seen uint64
	if err := r.ForEach(func(rec trace.Record) error {
		if seen&65535 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		seen++
		vpn := rec.Addr >> bits
		for _, s := range sims {
			s.Ref(vpn)
		}
		return nil
	}); err != nil {
		fatalf("%v", err)
	}
	logger.Debug("replay finished", "refs", seen, "sizes", *sizesArg)
	fmt.Printf("trace %s (%s, %d-byte pages)\n", *in, hdr.Workload, hdr.PageSize)
	fmt.Printf("%8s %12s %10s\n", "entries", "refs", "miss rate")
	for i, n := range sizes {
		fmt.Printf("%8d %12d %9.3f%%\n", n, sims[i].Refs, 100*sims[i].MissRate())
	}
}
