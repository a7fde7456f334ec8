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

func write(dir, name string, data []byte) {
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
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

// jobAcceptedSeeds writes 202 bodies for api.FuzzJobAccepted: a stored
// job whose artifact hashes to its status, and the shapes the client
// must keep nothing from (or only some of): tampered bytes, misaligned
// artifacts, a running status, no status, and a body cut short.
func jobAcceptedSeeds(dir string) {
	art := []byte(`{"api":"v1","spec_key":"k1","design":"T4","workload":"compress"}`)
	other := []byte(`{"api":"v1","spec_key":"k2","design":"M8","workload":"gcc"}`)
	spec := func(key string, data []byte) api.SpecStatus {
		sum := sha256.Sum256(data)
		return api.SpecStatus{SpecKey: key, State: api.StateDone, StoreHit: true,
			ResultURL: api.PathResults + key, SHA256: hex.EncodeToString(sum[:])}
	}
	status := func(state string, specs ...api.SpecStatus) *api.JobStatus {
		return &api.JobStatus{API: api.Version, ID: "j1", Tenant: "default", State: state,
			Done: len(specs), Total: len(specs), Specs: specs}
	}
	accepted := func(keys []string, st *api.JobStatus, arts ...[]byte) api.JobAccepted {
		return api.JobAccepted{API: api.Version, ID: "j1", Tenant: "default", Total: len(keys),
			SpecKeys: keys, StatusURL: api.PathJobs + "/j1", EventsURL: api.PathJobs + "/j1/events",
			Status: st, Artifacts: arts}
	}
	for name, acc := range map[string]api.JobAccepted{
		"seed_stored":     accepted([]string{"k1"}, status(api.StateDone, spec("k1", art)), art),
		"seed_tampered":   accepted([]string{"k1"}, status(api.StateDone, spec("k1", art)), []byte("tampered")),
		"seed_two_specs":  accepted([]string{"k1", "k2"}, status(api.StateDone, spec("k1", art), spec("k2", other)), art, other),
		"seed_duplicate":  accepted([]string{"k1", "k1"}, status(api.StateDone, spec("k1", art), spec("k1", art)), art, art),
		"seed_misaligned": accepted([]string{"k1"}, status(api.StateDone, spec("k1", art)), art, other),
		"seed_running":    accepted([]string{"k1"}, status(api.StateRunning, spec("k1", art)), art),
		"seed_open":       accepted([]string{"k1"}, nil),
	} {
		body, err := json.Marshal(acc)
		if err != nil {
			panic(err)
		}
		write(dir, name, body)
	}
	write(dir, "seed_not_json", []byte(`{"spec_keys":["k1"],"artifacts":[`))
}
