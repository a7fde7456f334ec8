package emu

import (
	"fmt"
	"reflect"
	"testing"

	"hbat/internal/mem"
	"hbat/internal/prog"
	"hbat/internal/vm"
	"hbat/internal/workload"
)

// copyLoad is the loader prog.Program.Load replaced, kept as the
// reference it is checked against: every data segment's bytes copied
// into frames the memory owns, page by page, segments in declaration
// order.
func copyLoad(p *prog.Program, pageSize uint64) (*vm.AddressSpace, *mem.Memory, error) {
	as, m := vm.NewAddressSpace(pageSize), mem.New()
	for _, r := range p.Regions {
		as.AddRegion(r)
	}
	for _, seg := range p.Data {
		b := make([]byte, seg.Size)
		p.Image.Read(seg.Addr, b)
		for vaddr := seg.Addr; len(b) > 0; {
			pa, err := as.Translate(vaddr, vm.PermWrite)
			if err != nil {
				return nil, nil, fmt.Errorf("loading data segment at 0x%x: %w", seg.Addr, err)
			}
			n := min(pageSize-as.PageOffset(vaddr), uint64(len(b)))
			m.Write(pa, b[:n])
			b = b[n:]
			vaddr += n
		}
	}
	return as, m, nil
}

// TestLoadMatchesCopyingLoader: mapping the image leaves a new machine
// exactly as copying the segments in did — the same page table, status
// bits and walk count, the same next physical frame, and the same bytes
// in every frame — for every workload at full scale, at pages below,
// at and above the frame size.
func TestLoadMatchesCopyingLoader(t *testing.T) {
	scale := workload.ScaleFull
	if testing.Short() {
		scale = workload.ScaleTest
	}
	for _, w := range workload.All() {
		p, err := w.Build(prog.Budget32, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range []uint64{1024, 4096, 8192} {
			m, err := New(p, ps)
			if err != nil {
				t.Fatal(err)
			}
			as, ref, err := copyLoad(p, ps)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.AS.ExportPages(), as.ExportPages(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d B pages: page tables differ (%d pages, copying loader %d)", w.Name, ps, len(got), len(want))
			}
			if m.AS.NextFrame() != as.NextFrame() || m.AS.WalkCount != as.WalkCount {
				t.Errorf("%s at %d B pages: next frame %d, walks %d; copying loader %d, %d",
					w.Name, ps, m.AS.NextFrame(), m.AS.WalkCount, as.NextFrame(), as.WalkCount)
			}
			if got, want := m.Mem.ExportFrames(), ref.ExportFrames(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d B pages: frame bytes differ (%d frames, copying loader %d)", w.Name, ps, len(got), len(want))
			}
		}
	}
}
