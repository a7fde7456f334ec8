package vm

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func newAS(t *testing.T, pageSize uint64) *AddressSpace {
	t.Helper()
	as := NewAddressSpace(pageSize)
	as.AddRegion(Region{Name: "data", Base: 0x1000_0000, Size: 1 << 20, Perm: PermRW})
	as.AddRegion(Region{Name: "text", Base: 0x0040_0000, Size: 1 << 16, Perm: PermRead | PermExec})
	return as
}

func TestPageGeometry(t *testing.T) {
	as := NewAddressSpace(8192)
	if as.PageSize() != 8192 || as.PageBits() != 13 {
		t.Fatalf("size %d bits %d", as.PageSize(), as.PageBits())
	}
	if as.VPN(0x4000) != 2 || as.PageOffset(0x4005) != 5 {
		t.Fatal("vpn/offset math wrong")
	}
}

func TestInvalidPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two page size")
		}
	}()
	NewAddressSpace(3000)
}

func TestDemandAllocation(t *testing.T) {
	as := newAS(t, 4096)
	pa1, err := as.Translate(0x1000_0000, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	pa2, err := as.Translate(0x1000_1000, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if pa1 == pa2 {
		t.Fatal("distinct pages share a frame")
	}
	if as.MappedPages() != 2 {
		t.Fatalf("mapped pages = %d", as.MappedPages())
	}
	// Same page translates consistently.
	pa1b, _ := as.Translate(0x1000_0008, PermRead)
	if pa1b != pa1+8 {
		t.Fatalf("offset not preserved: %#x vs %#x", pa1b, pa1)
	}
}

func TestUnmappedFaults(t *testing.T) {
	as := newAS(t, 4096)
	if _, err := as.Translate(0x7000_0000, PermRead); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
	if as.Faults != 1 {
		t.Fatalf("faults = %d", as.Faults)
	}
}

func TestProtection(t *testing.T) {
	as := newAS(t, 4096)
	if _, err := as.Translate(0x0040_0000, PermWrite); !errors.Is(err, ErrProt) {
		t.Fatalf("write to text: %v, want ErrProt", err)
	}
	if _, err := as.Translate(0x0040_0000, PermRead|PermExec); err != nil {
		t.Fatalf("fetch from text: %v", err)
	}
	if _, err := as.Translate(0x1000_0000, PermExec); !errors.Is(err, ErrProt) {
		t.Fatalf("exec of data: %v, want ErrProt", err)
	}
}

func TestRefDirtyBits(t *testing.T) {
	as := newAS(t, 4096)
	as.Translate(0x1000_0000, PermRead)
	pte, _ := as.Lookup(as.VPN(0x1000_0000))
	if !pte.Ref || pte.Dirty {
		t.Fatalf("after read: %+v", pte)
	}
	as.Translate(0x1000_0000, PermWrite)
	if !pte.Dirty {
		t.Fatal("write did not set dirty")
	}
	as.ClearStatus()
	if pte.Ref || pte.Dirty {
		t.Fatal("ClearStatus did not clear")
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	as := newAS(t, 4096)
	if _, ok := as.Probe(as.VPN(0x1000_0000)); ok {
		t.Fatal("probe of unwalked page hit")
	}
	if as.MappedPages() != 0 || as.Faults != 0 {
		t.Fatal("probe had side effects")
	}
}

func TestWalkIdempotent(t *testing.T) {
	as := newAS(t, 4096)
	p1, err := as.Walk(as.VPN(0x1000_0000))
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := as.Walk(as.VPN(0x1000_0000))
	if p1 != p2 {
		t.Fatal("walk reallocated an existing page")
	}
	if as.WalkCount != 2 {
		t.Fatalf("walk count = %d", as.WalkCount)
	}
}

func TestUnmap(t *testing.T) {
	as := newAS(t, 4096)
	vpn := as.VPN(0x1000_0000)
	as.Walk(vpn)
	as.Unmap(vpn)
	if _, ok := as.Probe(vpn); ok {
		t.Fatal("unmapped page still probes")
	}
}

// Property: translation preserves page offsets and never maps two
// virtual pages to the same frame.
func TestTranslationProperties(t *testing.T) {
	as := newAS(t, 4096)
	frames := map[uint64]uint64{} // pfn -> vpn
	if err := quick.Check(func(off uint32) bool {
		vaddr := 0x1000_0000 + uint64(off)%(1<<20)
		pa, err := as.Translate(vaddr, PermRead)
		if err != nil {
			return false
		}
		if pa&4095 != vaddr&4095 {
			return false // offset not preserved
		}
		pfn := pa >> 12
		vpn := vaddr >> 12
		if prev, ok := frames[pfn]; ok && prev != vpn {
			return false // frame aliased
		}
		frames[pfn] = vpn
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestResetEqualsNew: an address space Reset to another page size maps
// exactly as a new one, reusing the entries it handed out before.
func TestResetEqualsNew(t *testing.T) {
	as := newAS(t, 4096)
	var first *PTE
	for vpn := uint64(0x10000); vpn < 0x10000+2*pteBlock+5; vpn++ {
		pte, err := as.Walk(vpn)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = pte
		}
		pte.Dirty = true
	}
	as.Reset(8192)
	if as.MappedPages() != 0 || len(as.Regions()) != 0 || as.NextFrame() != 1 || as.WalkCount != 0 {
		t.Fatalf("reset address space keeps state: %d pages, %d regions, next frame %d, %d walks",
			as.MappedPages(), len(as.Regions()), as.NextFrame(), as.WalkCount)
	}
	fresh := NewAddressSpace(8192)
	for _, a := range []*AddressSpace{as, fresh} {
		a.AddRegion(Region{Name: "data", Base: 0x1000_0000, Size: 1 << 20, Perm: PermRW})
		for va := uint64(0x1000_0000); va < 0x1000_0000+40*8192; va += 3 * 8192 {
			if _, err := a.Translate(va, PermWrite); err != nil {
				t.Fatal(err)
			}
		}
	}
	if as.PageBits() != 13 || !reflect.DeepEqual(as.ExportPages(), fresh.ExportPages()) {
		t.Fatalf("reset address space maps %+v, a new one %+v", as.ExportPages(), fresh.ExportPages())
	}
	if pte, _ := as.Lookup(0x1000_0000 >> 13); pte != first {
		t.Error("the first page mapped after Reset got a new entry, not the first one handed out before")
	}
}
