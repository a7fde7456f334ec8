// Package vm implements the virtual-memory substrate: per-process page
// tables with configurable page size, on-demand physical frame
// allocation, protection bits, and referenced/dirty status. Every TLB
// design in internal/tlb caches entries produced by this package and
// writes status updates back through it.
package vm

import (
	"errors"
	"fmt"
	"sort"
)

// Perm is a page-protection bit set.
type Perm uint8

// Protection bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// PermRW is the common data-page protection.
const PermRW = PermRead | PermWrite

func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// PTE is a page-table entry: the mapping from one virtual page to a
// physical frame, its protection, and its status bits. TLB devices hold
// copies of the (VPN, PFN, Perm) fields and propagate status updates
// back to the authoritative entry here.
type PTE struct {
	VPN   uint64
	PFN   uint64
	Perm  Perm
	Ref   bool // referenced
	Dirty bool // written
}

// Common errors returned by translation.
var (
	// ErrUnmapped reports an access to an address with no mapping and
	// outside any growable region.
	ErrUnmapped = errors.New("vm: address not mapped")
	// ErrProt reports a protection violation.
	ErrProt = errors.New("vm: protection violation")
)

// Region is a contiguous range of virtual addresses that the address
// space will demand-allocate with a fixed protection. Workloads declare
// their code, global, heap, and stack segments as regions.
type Region struct {
	Name string
	Base uint64 // inclusive
	Size uint64 // bytes
	Perm Perm
}

// Contains reports whether vaddr falls inside the region.
func (r Region) Contains(vaddr uint64) bool {
	return vaddr >= r.Base && vaddr-r.Base < r.Size
}

// AddressSpace is a single simulated process address space: a page
// table plus the set of demand-allocatable regions.
type AddressSpace struct {
	pageBits  uint
	pageSize  uint64
	pages     map[uint64]*PTE
	regions   []Region
	nextFrame uint64 // next physical frame number to hand out

	// blocks hold the page table's entries, pteBlock each, handed out
	// in order: blocks[used] from entry next. Blocks never move (TLB
	// devices point into them), and Reset keeps them for the next run.
	blocks     [][]PTE
	used, next int
	// room is the most entries pages has held: a cleared map keeps room
	// for that many.
	room int

	// Faults counts translation failures (unmapped or protection).
	Faults uint64
	// WalkCount counts successful page-table walks (TLB fills).
	WalkCount uint64
}

// CheckPageSize reports whether NewAddressSpace accepts pageSize: a
// power of two of at least 1 KiB.
func CheckPageSize(pageSize uint64) error {
	if pageSize < 1024 || pageSize&(pageSize-1) != 0 {
		return fmt.Errorf("vm: invalid page size %d (a power of two, at least 1024)", pageSize)
	}
	return nil
}

// NewAddressSpace creates an address space with the given page size,
// which must be a power of two of at least 1 KB (the paper evaluates
// 4 KB and 8 KB pages).
func NewAddressSpace(pageSize uint64) *AddressSpace {
	as := &AddressSpace{pages: make(map[uint64]*PTE)}
	as.Reset(pageSize)
	return as
}

// Reset empties the address space and sets its page size, as
// NewAddressSpace would build it, keeping the page table's storage: the
// map and the entry blocks. Every PTE it handed out before is reused.
func (as *AddressSpace) Reset(pageSize uint64) {
	if err := CheckPageSize(pageSize); err != nil {
		panic(err)
	}
	bits := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		bits++
	}
	room := max(as.room, len(as.pages))
	clear(as.pages)
	*as = AddressSpace{
		pageBits:  bits,
		pageSize:  pageSize,
		pages:     as.pages,
		regions:   as.regions[:0],
		nextFrame: 1, // frame 0 reserved so PFN 0 never appears in a valid PTE
		blocks:    as.blocks,
		room:      room,
	}
}

// pteBlock is how many page-table entries one block holds.
const pteBlock = 32

// newPTE returns a page-table entry holding pte.
func (as *AddressSpace) newPTE(pte PTE) *PTE {
	if as.used == len(as.blocks) {
		as.blocks = append(as.blocks, make([]PTE, pteBlock))
	}
	p := &as.blocks[as.used][as.next]
	if as.next++; as.next == pteBlock {
		as.used, as.next = as.used+1, 0
	}
	*p = pte
	return p
}

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() uint64 { return as.pageSize }

// PageBits returns log2(page size).
func (as *AddressSpace) PageBits() uint { return as.pageBits }

// VPN returns the virtual page number of vaddr.
func (as *AddressSpace) VPN(vaddr uint64) uint64 { return vaddr >> as.pageBits }

// PageOffset returns the offset of vaddr within its page.
func (as *AddressSpace) PageOffset(vaddr uint64) uint64 {
	return vaddr & (as.pageSize - 1)
}

// AddRegion registers a demand-allocatable region. Overlapping regions
// are allowed; the first matching region's protection wins.
func (as *AddressSpace) AddRegion(r Region) {
	as.regions = append(as.regions, r)
}

// Regions returns the registered regions.
func (as *AddressSpace) Regions() []Region { return as.regions }

// regionFor returns the first region containing the first byte of the
// page holding vaddr, or nil.
func (as *AddressSpace) regionFor(vaddr uint64) *Region {
	for i := range as.regions {
		if as.regions[i].Contains(vaddr) {
			return &as.regions[i]
		}
	}
	return nil
}

// Lookup returns the PTE for vpn if one exists, without allocating.
func (as *AddressSpace) Lookup(vpn uint64) (*PTE, bool) {
	pte, ok := as.pages[vpn]
	return pte, ok
}

// Walk performs a page-table walk for vpn: it returns the existing PTE
// or demand-allocates one if the page lies in a registered region.
// Walk is what a TLB miss handler invokes; it counts as a walk even
// when the PTE already existed.
func (as *AddressSpace) Walk(vpn uint64) (*PTE, error) {
	if pte, ok := as.pages[vpn]; ok {
		as.WalkCount++
		return pte, nil
	}
	vaddr := vpn << as.pageBits
	r := as.regionFor(vaddr)
	if r == nil {
		as.Faults++
		return nil, fmt.Errorf("%w: va 0x%x", ErrUnmapped, vaddr)
	}
	pte := as.newPTE(PTE{VPN: vpn, PFN: as.nextFrame, Perm: r.Perm})
	as.nextFrame++
	as.pages[vpn] = pte
	as.WalkCount++
	return pte, nil
}

// Probe is a side-effect-free translation used for speculative
// accesses: it never allocates and never counts a fault.
func (as *AddressSpace) Probe(vpn uint64) (*PTE, bool) {
	pte, ok := as.pages[vpn]
	return pte, ok
}

// Translate maps a virtual address to a physical address for an access
// needing perm, walking (and demand-allocating) as required and
// updating Ref/Dirty. It is the functional-simulation path; the timing
// simulator goes through a TLB device instead.
func (as *AddressSpace) Translate(vaddr uint64, perm Perm) (uint64, error) {
	pte, err := as.Walk(as.VPN(vaddr))
	if err != nil {
		return 0, err
	}
	if pte.Perm&perm != perm {
		as.Faults++
		return 0, fmt.Errorf("%w: va 0x%x needs %v has %v", ErrProt, vaddr, perm, pte.Perm)
	}
	pte.Ref = true
	if perm&PermWrite != 0 {
		pte.Dirty = true
	}
	return pte.PFN<<as.pageBits | as.PageOffset(vaddr), nil
}

// MappedPages reports how many pages are currently mapped.
func (as *AddressSpace) MappedPages() int { return len(as.pages) }

// Unmap removes the mapping for vpn, if any. Used by tests and by
// consistency-operation experiments.
func (as *AddressSpace) Unmap(vpn uint64) { delete(as.pages, vpn) }

// ClearStatus resets the referenced and dirty bits of every mapped page
// (used after program loading so the simulated machine's own accesses
// generate status updates).
func (as *AddressSpace) ClearStatus() {
	for _, pte := range as.pages {
		pte.Ref = false
		pte.Dirty = false
	}
}

// NextFrame returns the next physical frame number the allocator would
// hand out. Checkpoints record it so allocation resumes deterministically.
func (as *AddressSpace) NextFrame() uint64 { return as.nextFrame }

// ExportPages returns a copy of every mapped PTE sorted by VPN, so the
// result is deterministic for serialization.
func (as *AddressSpace) ExportPages() []PTE {
	out := make([]PTE, 0, len(as.pages))
	for _, pte := range as.pages {
		out = append(out, *pte)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VPN < out[j].VPN })
	return out
}

// ImportPages replaces the page table with copies of ptes and resets the
// frame allocator to nextFrame. The AddressSpace value itself is mutated
// in place: TLB devices hold a pointer to it, so the restored table must
// appear behind the same pointer they captured at construction. Fault and
// walk counters are zeroed — the measurement window starts fresh.
func (as *AddressSpace) ImportPages(ptes []PTE, nextFrame uint64) {
	if as.room = max(as.room, len(as.pages)); len(ptes) > as.room {
		as.pages = make(map[uint64]*PTE, len(ptes))
		as.room = len(ptes)
	} else {
		clear(as.pages)
	}
	for _, p := range ptes {
		as.pages[p.VPN] = as.newPTE(p)
	}
	as.nextFrame = nextFrame
	as.Faults = 0
	as.WalkCount = 0
}
