package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hbat/api"
	"hbat/internal/ckpt"
	"hbat/internal/mem"
	"hbat/internal/vm"
)

// write writes one corpus entry: a fuzz target's arguments, each a
// []byte.
func write(dir, name string, args ...[]byte) {
	content := "go test fuzz v1\n"
	for _, data := range args {
		content += fmt.Sprintf("[]byte(%q)\n", data)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		panic(err)
	}
}

func main() {
	dir := "internal/ckpt/testdata/fuzz/FuzzCheckpointRoundTrip"
	// A minimal synthetic checkpoint: one page, one frame, no warmed
	// arrays — small enough to keep in the repo, rich enough to reach
	// every section of the decoder.
	c := &ckpt.Checkpoint{
		PageSize:    4096,
		FastForward: 7,
		PC:          0x1000,
		InstCount:   7,
		Pages:       []vm.PTE{{VPN: 1, PFN: 1, Perm: vm.PermRW, Ref: true}},
		NextFrame:   2,
		Frames:      []mem.FrameImage{{Index: 1, Data: &[mem.FrameSize]byte{0xAB}}},
	}
	c.Regs[3] = 42
	valid := c.Encode()
	write(dir, "seed_minimal_valid", valid)
	// Pre-mutated shapes: the typed-error paths.
	write(dir, "seed_empty", nil)
	write(dir, "seed_magic_only", []byte(ckpt.Magic))
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'Z'
	write(dir, "seed_bad_magic", badMagic)
	flipped := append([]byte(nil), valid...)
	flipped[20] ^= 0xFF
	write(dir, "seed_bit_flip", flipped)
	write(dir, "seed_truncated", valid[:len(valid)-9])
	fmt.Println("corpus written:", len(valid), "byte valid seed")
	jobAcceptedSeeds("api/testdata/fuzz/FuzzJobAccepted")
}

// jobAcceptedSeeds writes (202 body, job status body) pairs for
// api.FuzzJobAccepted: a stored job whose artifact hashes to its status,
// a job open at its 202 whose terminal status carries it, and the
// shapes the client must keep nothing from (or only some of): tampered
// bytes, a status naming other keys than its 202, a running status, a
// failed one, and bodies cut short.
func jobAcceptedSeeds(dir string) {
	art := []byte(`{"api":"v1","spec_key":"k1","design":"T4","workload":"compress"}`)
	other := []byte(`{"api":"v1","spec_key":"k2","design":"M8","workload":"gcc"}`)
	spec := func(key string, data, carried []byte) api.SpecStatus {
		sum := sha256.Sum256(data)
		return api.SpecStatus{SpecKey: key, State: api.StateDone,
			ResultURL: api.PathResults + key, SHA256: hex.EncodeToString(sum[:]), Artifact: carried}
	}
	status := func(state string, specs ...api.SpecStatus) *api.JobStatus {
		return &api.JobStatus{API: api.Version, ID: "j1", Tenant: "default", State: state,
			Done: len(specs), Total: len(specs), Specs: specs}
	}
	accepted := func(st *api.JobStatus, keys ...string) api.JobAccepted {
		return api.JobAccepted{API: api.Version, ID: "j1", Tenant: "default", Total: len(keys),
			SpecKeys: keys, StatusURL: api.PathJobs + "/j1", EventsURL: api.PathJobs + "/j1/events",
			Status: st}
	}
	stored := status(api.StateDone, spec("k1", art, art))
	two := status(api.StateDone, spec("k1", art, art), spec("k2", other, other))
	tampered := status(api.StateDone, spec("k1", art, []byte("tampered")))
	for name, seed := range map[string]struct {
		acc api.JobAccepted
		st  *api.JobStatus
	}{
		"seed_stored":        {accepted(stored, "k1"), stored},
		"seed_tampered":      {accepted(tampered, "k1"), tampered},
		"seed_two_specs":     {accepted(two, "k1", "k2"), two},
		"seed_duplicate":     {accepted(status(api.StateDone, spec("k1", art, art), spec("k1", art, art)), "k1", "k1"), stored},
		"seed_running":       {accepted(status(api.StateRunning, spec("k1", art, art)), "k1"), stored},
		"seed_misaligned":    {accepted(status(api.StateDone, spec("k2", other, other)), "k1"), two},
		"seed_open":          {accepted(nil, "k1", "k2"), two},
		"seed_open_tampered": {accepted(nil, "k1"), tampered},
		"seed_open_failed":   {accepted(nil, "k1"), status(api.StateFailed, spec("k1", art, nil))},
	} {
		acc, err := json.Marshal(seed.acc)
		if err != nil {
			panic(err)
		}
		st, err := json.Marshal(seed.st)
		if err != nil {
			panic(err)
		}
		write(dir, name, acc, st)
	}
	write(dir, "seed_not_json", []byte(`{"spec_keys":["k1"],"status":{"state":"done","specs":[`), []byte(`{"state":"done","specs":[{"artifact":`))
}
