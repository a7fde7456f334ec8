package main

import (
	"fmt"
	"os"
	"path/filepath"

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
}
