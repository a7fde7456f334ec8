package transport

import (
	"bytes"
	"encoding/json"
	"testing"

	"hbat/api"
	"hbat/internal/engine"
)

// FuzzJobRequest decodes arbitrary bytes as a POST /v1/jobs body, the
// way intake does. Nothing may panic; requestSize, which intake holds
// against the spec limit before expanding anything, must equal
// len(ExpandRequest) for every request within the default 1024-spec
// limit; and every spec NormalizeSpecs accepts must keep its spec key
// through the JSON round trip a coordinator forwards it to a worker in —
// engine.SpecFromWire on its wire form hashes the same. The seed corpus
// is testdata/fuzz/FuzzJobRequest.
func FuzzJobRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req api.JobRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		n := requestSize(&req)
		if n > 1024 {
			return
		}
		wire := ExpandRequest(&req)
		if int64(len(wire)) != n {
			t.Fatalf("requestSize = %d, but ExpandRequest made %d specs", n, len(wire))
		}
		for _, o := range wire {
			_, sts, err := NormalizeSpecs([]api.SimOptions{o})
			if err != nil {
				continue
			}
			b, err := json.Marshal(o)
			if err != nil {
				t.Fatalf("accepted spec %+v does not marshal: %v", o, err)
			}
			var back api.SimOptions
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("wire form %s does not decode: %v", b, err)
			}
			spec, err := engine.SpecFromWire(back)
			if err != nil {
				t.Fatalf("accepted spec %+v refused on its wire form %s: %v", o, b, err)
			}
			if spec.Hash() != sts[0].SpecKey {
				t.Fatalf("spec %+v has key %s, its wire form %s has %s", o, sts[0].SpecKey, b, spec.Hash())
			}
		}
	})
}
