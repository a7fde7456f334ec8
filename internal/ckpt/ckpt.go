// Package ckpt implements two-phase simulation checkpoints: the state
// handoff between a fast functional warm-up phase (internal/emu plus
// functional-touch updates of the cache/TLB/branch-predictor arrays) and
// the cycle-accurate measurement window (internal/cpu). A Checkpoint is
// a versioned, deterministic serialization of architectural state
// (registers, PC, page table, physical memory) plus warmed
// microarchitectural state (cache tag arrays, predictor tables, and the
// recency-ordered page-reference stream that re-warms any TLB design),
// so one checkpoint per (workload, budget, scale) serves all thirteen
// Table 2 designs of a sweep. Its encoding is what the engine keeps in
// the result store, so a checkpoint survives the process.
//
// Build warms while it executes: the superblock engine (internal/emu/
// sblock) reports each block execution and data reference to the
// builder's warm sink as it runs. The sink takes two exact cuts — a run
// of same-line data references is one warm access, and a whole block
// whose I-cache lines are all resident records only its start index
// until something could miss — so its checkpoints are byte-identical
// to the per-instruction interpreter's, which stays as the reference.
//
// The encoding is byte-stable: Encode(Decode(b)) == b for any valid b,
// and the same state always encodes to the same bytes. Corrupt input is
// rejected with a typed error, never a panic.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/vm"
)

// Format constants.
const (
	// Magic identifies a checkpoint file.
	Magic = "HBATCKPT"
	// Version is the current encoding version. Any change to the layout
	// below must bump it; decoders reject other versions outright rather
	// than guessing.
	Version = 1
)

// Typed decode errors. All decoding failures wrap one of these.
var (
	// ErrBadMagic reports input that is not a checkpoint at all.
	ErrBadMagic = errors.New("ckpt: bad magic")
	// ErrVersion reports a checkpoint from an incompatible format version.
	ErrVersion = errors.New("ckpt: unsupported version")
	// ErrTruncated reports input shorter than its structure requires.
	ErrTruncated = errors.New("ckpt: truncated input")
	// ErrCorrupt reports a checksum mismatch or an impossible field value.
	ErrCorrupt = errors.New("ckpt: corrupt input")
)

// ErrShortProgram reports that the functional phase halted at or before
// the requested fast-forward point, leaving nothing to measure.
var ErrShortProgram = errors.New("ckpt: program halted before fast-forward point")

// WarmRef is one entry of the distinct-page reference stream: the
// virtual page number of a data access made during the functional phase
// and whether the most recent access to it was a store. The stream is
// ordered oldest-first by most-recent use, so replaying it through any
// TLB design's Warm hook reproduces a realistic recency ordering.
type WarmRef struct {
	VPN   uint64
	Write bool
}

// Checkpoint is the complete state handoff at the fast-forward point.
// Once built or decoded it is immutable: restores read it in place
// (physical memory aliases Frames copy-on-write, see
// mem.Memory.ImportFrames), which is what lets any number of machines
// restore from one checkpoint concurrently. Build's Frames are the
// frames its functional machine wrote, taken over rather than copied;
// Decode's share one allocation.
type Checkpoint struct {
	PageSize    uint64
	FastForward uint64 // instructions executed by the functional phase

	// Architectural state.
	Regs [isa.NumRegs]uint64
	PC   uint64

	// Retired-operation counts at the handoff (emulator semantics).
	InstCount   uint64
	LoadCount   uint64
	StoreCount  uint64
	BranchCount uint64
	TakenCount  uint64

	// Memory state: the page table (with referenced/dirty status as the
	// functional phase left it), the frame allocator cursor, and every
	// non-zero physical frame.
	Pages     []vm.PTE
	NextFrame uint64
	Frames    []mem.FrameImage

	// Warmed microarchitectural state. Recency stamps inside are
	// negative (instruction index minus phase length) so every warmed
	// element is older than anything the measurement window touches.
	ICache cache.State
	DCache cache.State
	Pred   bpred.State

	// WarmRefs re-warms TLB state. It is stored design-independently —
	// as the reference stream rather than per-design arrays — precisely
	// so one checkpoint serves all thirteen designs.
	WarmRefs []WarmRef
}

// Encode serializes the checkpoint deterministically: magic, version,
// little-endian payload, SHA-256 trailer over everything before it.
func (c *Checkpoint) Encode() []byte {
	e := &encoder{}
	e.bytes([]byte(Magic))
	e.u32(Version)

	e.u64(c.PageSize)
	e.u64(c.FastForward)
	for _, r := range c.Regs {
		e.u64(r)
	}
	e.u64(c.PC)
	e.u64(c.InstCount)
	e.u64(c.LoadCount)
	e.u64(c.StoreCount)
	e.u64(c.BranchCount)
	e.u64(c.TakenCount)

	e.u64(c.NextFrame)
	e.u64(uint64(len(c.Pages)))
	for _, p := range c.Pages {
		e.u64(p.VPN)
		e.u64(p.PFN)
		e.u8(uint8(p.Perm))
		e.u8(boolBits(p.Ref, p.Dirty))
	}
	e.u64(uint64(len(c.Frames)))
	for i := range c.Frames {
		e.u64(c.Frames[i].Index)
		e.bytes(c.Frames[i].Data[:])
	}

	e.cacheState(c.ICache)
	e.cacheState(c.DCache)

	e.u64(uint64(len(c.Pred.PHT)))
	e.bytes(c.Pred.PHT)
	e.u64(c.Pred.GHR)
	e.u64(uint64(len(c.Pred.BTB)))
	for _, b := range c.Pred.BTB {
		e.u64(b.PC)
		e.u64(b.Target)
		e.u8(boolBits(b.Valid, false))
	}

	e.u64(uint64(len(c.WarmRefs)))
	for _, w := range c.WarmRefs {
		e.u64(w.VPN)
		e.u8(boolBits(w.Write, false))
	}

	sum := sha256.Sum256(e.buf)
	return append(e.buf, sum[:]...)
}

// Decode parses a checkpoint produced by Encode. Any malformed input —
// wrong magic, wrong version, bad checksum, truncation, impossible
// counts — is rejected with an error wrapping one of the typed errors
// above; Decode never panics.
func Decode(data []byte) (*Checkpoint, error) {
	const trailer = sha256.Size
	if len(data) < len(Magic)+4+trailer {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	body, sum := data[:len(data)-trailer], data[len(data)-trailer:]
	if got := sha256.Sum256(body); string(got[:]) != string(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &decoder{buf: body[len(Magic):]}
	if v := d.u32(); v != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}

	c := &Checkpoint{}
	c.PageSize = d.u64()
	c.FastForward = d.u64()
	for i := range c.Regs {
		c.Regs[i] = d.u64()
	}
	c.PC = d.u64()
	c.InstCount = d.u64()
	c.LoadCount = d.u64()
	c.StoreCount = d.u64()
	c.BranchCount = d.u64()
	c.TakenCount = d.u64()

	c.NextFrame = d.u64()
	nPages := d.count(8 + 8 + 1 + 1)
	c.Pages = make([]vm.PTE, nPages)
	for i := range c.Pages {
		c.Pages[i].VPN = d.u64()
		c.Pages[i].PFN = d.u64()
		c.Pages[i].Perm = vm.Perm(d.u8())
		c.Pages[i].Ref, c.Pages[i].Dirty = bits2(d.u8())
	}
	nFrames := d.count(8 + mem.FrameSize)
	c.Frames = make([]mem.FrameImage, nFrames)
	backing := make([][mem.FrameSize]byte, nFrames)
	for i := range c.Frames {
		c.Frames[i].Index = d.u64()
		copy(backing[i][:], d.bytes(mem.FrameSize))
		c.Frames[i].Data = &backing[i]
	}

	c.ICache = d.cacheState()
	c.DCache = d.cacheState()

	c.Pred.PHT = append([]uint8(nil), d.bytes(int(d.count(1)))...)
	c.Pred.GHR = d.u64()
	nBTB := d.count(8 + 8 + 1)
	c.Pred.BTB = make([]bpred.BTBState, nBTB)
	for i := range c.Pred.BTB {
		c.Pred.BTB[i].PC = d.u64()
		c.Pred.BTB[i].Target = d.u64()
		c.Pred.BTB[i].Valid, _ = bits2(d.u8())
	}

	nWarm := d.count(8 + 1)
	c.WarmRefs = make([]WarmRef, nWarm)
	for i := range c.WarmRefs {
		c.WarmRefs[i].VPN = d.u64()
		c.WarmRefs[i].Write, _ = bits2(d.u8())
	}

	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return c, nil
}

// --- low-level codec ---

func boolBits(a, b bool) uint8 {
	v := uint8(0)
	if a {
		v |= 1
	}
	if b {
		v |= 2
	}
	return v
}

func bits2(v uint8) (a, b bool) { return v&1 != 0, v&2 != 0 }

type encoder struct{ buf []byte }

func (e *encoder) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *encoder) u8(v uint8)     { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)   { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)    { e.u64(uint64(v)) }

func (e *encoder) cacheState(st cache.State) {
	e.u64(uint64(st.Sets))
	e.u64(uint64(st.Assoc))
	e.u64(uint64(len(st.Lines)))
	for _, l := range st.Lines {
		e.u64(l.Tag)
		e.i64(l.Used)
		e.u8(boolBits(l.Valid, l.Dirty))
	}
}

// decoder reads the payload with sticky-error, bounds-checked cursor
// semantics: after the first short read every further read returns
// zeros, and the error surfaces once at the end of Decode.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload ends at offset %d", ErrTruncated, d.off)
	}
}

func (d *decoder) bytes(n int) []byte {
	if n < 0 || d.off+n > len(d.buf) || d.off+n < d.off {
		d.fail()
		return make([]byte, maxInt(n, 0))
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8   { return d.bytes(1)[0] }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.bytes(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.bytes(8)) }
func (d *decoder) i64() int64  { return int64(d.u64()) }

// count reads an element count and validates it against the bytes
// actually remaining (each element needs at least elemSize bytes), so a
// corrupt length can never trigger a huge allocation.
func (d *decoder) count(elemSize int) uint64 {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if remaining := uint64(len(d.buf) - d.off); elemSize > 0 && n > remaining/uint64(elemSize) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: count %d exceeds remaining payload", ErrCorrupt, n)
		}
		return 0
	}
	return n
}

func (d *decoder) cacheState() cache.State {
	st := cache.State{Sets: int(d.u64()), Assoc: int(d.u64())}
	n := d.count(8 + 8 + 1)
	st.Lines = make([]cache.LineState, n)
	for i := range st.Lines {
		st.Lines[i].Tag = d.u64()
		st.Lines[i].Used = d.i64()
		st.Lines[i].Valid, st.Lines[i].Dirty = bits2(d.u8())
	}
	return st
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
