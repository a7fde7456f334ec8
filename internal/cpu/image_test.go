package cpu_test

import (
	"context"
	"crypto/sha256"
	"sync"
	"testing"

	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/workload"
)

// imageHash is the SHA-256 of the bytes of p's data segments.
func imageHash(p *prog.Program) [sha256.Size]byte {
	h := sha256.New()
	for _, seg := range p.Data {
		buf := make([]byte, seg.Size)
		progen.ReadImage(&p.Image, seg.Addr, buf)
		h.Write(buf)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestProgramImageReadOnly: every machine maps its program's image
// copy-on-write, so one program per workload runs through all of them
// at once — the interpreter, the translated engine, a checkpoint build,
// and a cycle-level run from reset and one fast-forwarded halfway — and
// its image is byte for byte what the builder wrote. Under -race (make
// check) a write to a shared frame while another machine reads it is
// also a reported race.
func TestProgramImageReadOnly(t *testing.T) {
	ctx := context.Background()
	var wg sync.WaitGroup
	progs := make([]*prog.Program, 0, len(progen.Workloads()))
	hashes := make([][sha256.Size]byte, 0, cap(progs))
	for _, w := range progen.Workloads() {
		p, err := w.Build(prog.Budget32, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		progs, hashes = append(progs, p), append(hashes, imageHash(p))
		em, err := emu.New(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := em.Run(0); err != nil {
			t.Fatal(err)
		}
		half := em.InstCount / 2
		cycleRun := func(ffwd uint64) error {
			cfg := cpu.DefaultConfig()
			if ffwd > 0 {
				if cfg, err = cpu.WithCheckpoint(p, cfg, ffwd); err != nil {
					return err
				}
			}
			m, err := cpu.NewWithDesign(p, cfg, "T4")
			if err != nil {
				return err
			}
			defer m.Release()
			return m.Run()
		}
		runs := map[string]func() error{
			"interpreter": func() error {
				m, err := emu.New(p, 8192)
				if err != nil {
					return err
				}
				return m.Run(0)
			},
			"sblock": func() error {
				m, err := emu.New(p, 4096)
				if err != nil {
					return err
				}
				return sblock.New(m).Run(0)
			},
			"ckpt.Build": func() error {
				d := cpu.DefaultConfig()
				_, err := ckpt.Build(ctx, p, ckpt.BuildConfig{
					PageSize: 4096, FastForward: half, ICache: d.ICache, DCache: d.DCache, Branch: d.Branch,
				})
				return err
			},
			"cpu from reset": func() error { return cycleRun(0) },
			"cpu ffwd":       func() error { return cycleRun(half) },
		}
		for name, run := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := run(); err != nil {
					t.Errorf("%s, %s: %v", w.Name, name, err)
				}
			}()
		}
	}
	wg.Wait()
	for i, p := range progs {
		if imageHash(p) != hashes[i] {
			t.Errorf("%s: a run wrote the program's image", p.Name)
		}
	}
}
