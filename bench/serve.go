package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// oracleEvery is the share of jobs whose bytes are compared with a
// local simulation of the same spec after the timed region: one in ten.
const oracleEvery = 10

// servingInstance is a mounted fabric with the 130-spec grid prefilled,
// driven by a closed loop of clients.
type servingInstance struct {
	fab  *fabric
	gen  *generator
	cold bool

	// next is each client's next job index; it persists across runs so
	// a second run on one instance never repeats a cold seed.
	next [clients]int

	// prefill describes the grid as the fabric served it during set-up.
	prefill struct {
		sha    map[string]string // spec key → content hash
		insts  map[string]uint64
		digest string
		counts simCounts
	}

	// sampled are the jobs picked for the oracle; served holds the
	// bytes the fabric returned for each spec key of a sampled job.
	mu      sync.Mutex
	sampled []jobRequest
	served  map[string][]byte
}

func setUpServing(ctx context.Context, seed uint64, fleet, cold bool) (instance, error) {
	var (
		fab *fabric
		err error
	)
	if fleet {
		fab, err = mountFleet(ctx, 2)
	} else {
		fab, err = mountDirect()
	}
	if err != nil {
		return nil, err
	}
	s := &servingInstance{
		fab: fab, cold: cold,
		gen:    newGenerator(seed, workloadNames(), designNames()),
		served: make(map[string][]byte),
	}
	if err := s.fill(ctx); err != nil {
		s.close(ctx)
		return nil, err
	}
	return s, nil
}

// fill submits the whole grid as one job, fetches and verifies every
// artifact, and keeps their hashes, instruction counts, simulated sums
// and digest. The digest is taken in Figure 5's spec order (designs
// outer, workloads inner), so it equals grid-cold's for the same seed:
// bytes served by a daemon are the bytes a local engine renders.
func (s *servingInstance) fill(ctx context.Context) error {
	cl := newFabricClient(s.fab.base, nil)
	defer cl.closeIdle()
	id, keys, err := cl.submit(ctx, prefillRequest(s.gen.gridSeed()))
	if err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	specs, err := cl.wait(ctx, id)
	if err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	nw, nd := len(s.gen.workloads), len(s.gen.designs)
	if len(keys) != nw*nd || len(specs) != len(keys) {
		return fmt.Errorf("prefill: %d keys and %d statuses for a %d-spec grid", len(keys), len(specs), nw*nd)
	}
	s.prefill.sha = make(map[string]string, len(keys))
	s.prefill.insts = make(map[string]uint64, len(keys))
	data := make(map[string][]byte, len(keys))
	for _, sp := range specs {
		b, err := fetchVerified(ctx, cl, sp)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		r, err := decodeArtifact(b)
		if err != nil {
			return fmt.Errorf("prefill: %s: %w", sp.Key, err)
		}
		data[sp.Key] = b
		s.prefill.sha[sp.Key] = sp.SHA256
		s.prefill.insts[sp.Key] = r.Instructions + r.FastForwarded
		s.prefill.counts.add(r)
	}
	h := sha256.New()
	for d := 0; d < nd; d++ {
		for w := 0; w < nw; w++ {
			h.Write(data[keys[w*nd+d]]) // the job expands workloads outer
		}
	}
	s.prefill.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// fetchVerified reads one finished spec's artifact and checks that the
// bytes hash to both the status's SHA-256 and the response's ETag.
func fetchVerified(ctx context.Context, cl *fabricClient, sp specOutcome) ([]byte, error) {
	if !sp.Done || sp.Error != "" {
		return nil, fmt.Errorf("spec %s not done: %s", sp.Key, sp.Error)
	}
	data, etag, err := cl.result(ctx, sp.Key)
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", sp.Key, err)
	}
	if got := artifactSHA256(data); got != sp.SHA256 || got != etag {
		return nil, fmt.Errorf("result %s: bytes hash to %.12s, status says %.12s, ETag %.12s", sp.Key, got, sp.SHA256, etag)
	}
	return data, nil
}

// pollRecorder records one poll span per HTTP round trip made under a
// wait span. It sits on the public api.Client.HTTP field, so Wait
// itself stays the program's own code.
type pollRecorder struct{ next http.RoundTripper }

func (p pollRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := spanFrom(r.Context())
	if !ok {
		return p.next.RoundTrip(r)
	}
	id := ref.t.start("poll", ref.id, ref.op)
	resp, err := p.next.RoundTrip(r)
	ref.t.end(id)
	return resp, err
}

// clientRecord is what one closed-loop client measured.
type clientRecord struct {
	lat       latencies
	seconds   float64
	delivered map[string]int    // spec key → results read
	cold      map[string][]byte // cold runs: first bytes read per key
	serving   servingStats
	bad       []string
}

// errGenerator marks a run the generator itself got wrong: a hit job
// that missed the store or a cold job that hit it measures something
// other than what the workload is for, so the run is abandoned.
type errGenerator struct{ msg string }

func (e errGenerator) Error() string { return "generator bug: " + e.msg }

func (s *servingInstance) run(ctx context.Context, d time.Duration, tr *tracer) (*runStats, error) {
	eng0, st0 := s.fab.engineStats(), s.fab.storeStats()
	recs := make([]*clientRecord, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c], errs[c] = s.client(ctx, c, d, tr)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	st := &runStats{digest: s.prefill.digest, counts: s.prefill.counts}
	st.serving.byWorker = make(map[string]int)
	for _, r := range recs {
		st.lat.merge(r.lat)
		st.opsPerS += float64(len(r.lat.ok)) / r.seconds
		st.seconds = max(st.seconds, r.seconds)
		st.bad = append(st.bad, r.bad...)
		st.serving.specs += r.serving.specs
		st.serving.storeHits += r.serving.storeHits
		st.serving.attempts += r.serving.attempts
		st.serving.retried += r.serving.retried
		st.serving.specWallMs = append(st.serving.specWallMs, r.serving.specWallMs...)
		for w, n := range r.serving.byWorker {
			st.serving.byWorker[w] += n
		}
		for key, n := range r.delivered {
			insts, ok := s.prefill.insts[key]
			if !ok {
				res, err := decodeArtifact(r.cold[key])
				if err != nil {
					return nil, fmt.Errorf("artifact %s: %w", key, err)
				}
				insts = res.Instructions + res.FastForwarded
			}
			st.insts += uint64(n) * insts
		}
	}
	st.engine = s.fab.engineStats().minus(eng0)
	st.store = s.fab.storeStats().minus(st0)
	return st, nil
}

// client is one closed-loop client: over its own single connection it
// sends its next job only when the previous one is read and verified,
// until d has passed.
func (s *servingInstance) client(ctx context.Context, c int, d time.Duration, tr *tracer) (*clientRecord, error) {
	var wrap func(http.RoundTripper) http.RoundTripper
	if tr != nil {
		wrap = func(next http.RoundTripper) http.RoundTripper { return pollRecorder{next} }
	}
	cl := newFabricClient(s.fab.base, wrap)
	defer cl.closeIdle()
	rec := &clientRecord{delivered: make(map[string]int), cold: make(map[string][]byte)}
	rec.serving.byWorker = make(map[string]int)
	begin := time.Now()
	for time.Since(begin) < d {
		i := s.next[c]
		s.next[c]++
		t0 := time.Now()
		err := s.job(ctx, cl, c, i, tr, rec)
		if _, fatal := err.(errGenerator); fatal {
			return nil, err
		}
		if err != nil {
			rec.lat.fail()
			rec.bad = append(rec.bad, fmt.Sprintf("client %d job %d: %v", c, i, err))
			continue
		}
		rec.lat.succeed(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	rec.seconds = time.Since(begin).Seconds()
	return rec, nil
}

// job is one operation: Submit, Wait, then Result per spec — the calls
// hbat.Dial's Simulate makes — and the hash check of every byte read.
func (s *servingInstance) job(ctx context.Context, cl *fabricClient, c, i int, tr *tracer, rec *clientRecord) error {
	var req jobRequest
	if s.cold {
		req = s.gen.cold(c, i)
	} else {
		req = s.gen.hit(c, i)
	}
	op := tr.newOp()
	js := tr.start("job", -1, op)
	defer tr.end(js)

	ss := tr.start("submit", js, op)
	id, _, err := cl.submit(ctx, req)
	tr.end(ss)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	ws := tr.start("wait", js, op)
	specs, err := cl.wait(withSpan(ctx, tr, ws, op), id)
	tr.end(ws)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}

	sample := i%oracleEvery == 0
	datas := make([][]byte, len(specs))
	for k, sp := range specs {
		if sp.Done && sp.StoreHit == s.cold {
			return errGenerator{fmt.Sprintf("job %d spec %s: store_hit=%v on a %s job", i, sp.Key, sp.StoreHit, map[bool]string{true: "cold", false: "hit"}[s.cold])}
		}
		rs := tr.start("result", js, op)
		data, etag, err := cl.result(ctx, sp.Key)
		tr.end(rs)
		if !sp.Done || sp.Error != "" {
			return fmt.Errorf("spec %s not done: %s", sp.Key, sp.Error)
		}
		if err != nil {
			return fmt.Errorf("result %s: %w", sp.Key, err)
		}
		if etag != sp.SHA256 {
			return fmt.Errorf("result %s: ETag %.12s, status says %.12s", sp.Key, etag, sp.SHA256)
		}
		datas[k] = data
	}

	vs := tr.start("verify", js, op)
	defer tr.end(vs)
	for k, sp := range specs {
		if got := artifactSHA256(datas[k]); got != sp.SHA256 {
			return fmt.Errorf("result %s: bytes hash to %.12s, status says %.12s", sp.Key, got, sp.SHA256)
		}
		if want, ok := s.prefill.sha[sp.Key]; ok && want != sp.SHA256 {
			return fmt.Errorf("result %s: hash %.12s differs from the prefilled %.12s", sp.Key, sp.SHA256, want)
		}
		rec.delivered[sp.Key]++
		if s.cold {
			rec.cold[sp.Key] = datas[k]
		}
		rec.serving.specs++
		if sp.StoreHit {
			rec.serving.storeHits++
		}
		rec.serving.specWallMs = append(rec.serving.specWallMs, sp.WallMs)
		if sp.Worker != "" {
			rec.serving.byWorker[sp.Worker]++
			rec.serving.attempts += sp.Attempts
			if sp.Attempts > 1 {
				rec.serving.retried++
			}
		}
	}
	if sample {
		s.mu.Lock()
		s.sampled = append(s.sampled, req)
		for k, sp := range specs {
			s.served[sp.Key] = datas[k]
		}
		s.mu.Unlock()
	}
	return nil
}

// verify simulates every sampled job's specs on a local engine and
// compares the canonical bytes with what the fabric served.
func (s *servingInstance) verify(ctx context.Context) ([]string, error) {
	want, err := localArtifacts(ctx, s.sampled)
	if err != nil {
		return nil, err
	}
	var bad []string
	for key, local := range want {
		if got, ok := s.served[key]; !ok || string(got) != string(local) {
			bad = append(bad, fmt.Sprintf("spec %s: served bytes differ from a local engine run", key))
		}
	}
	return bad, nil
}

func (s *servingInstance) close(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	s.fab.close(ctx)
}
