// Package mem implements the sparse physical memory underlying the
// simulated machine. Storage is allocated in fixed-size frames on first
// touch, so multi-megabyte simulated data sets (the paper's TFFT uses
// ~40 MB) cost only what they actually touch.
package mem

import (
	"encoding/binary"
	"fmt"
)

// FrameBits is the log2 of the physical frame size used for backing
// storage. This is an implementation detail of the sparse store and is
// independent of the virtual-memory page size.
const FrameBits = 12

// FrameSize is the byte size of one backing frame.
const FrameSize = 1 << FrameBits

type frame [FrameSize]byte

// Memory is a sparse byte-addressable physical memory. The zero value
// is an empty memory ready for use. Memory is not safe for concurrent
// mutation; the simulator is single-goroutine per machine.
//
// Frames live in a table indexed by frame number, grown by doubling:
// vm.AddressSpace hands physical frames out sequentially from zero, so
// the table is dense and a lookup is one bounds check and one load.
type Memory struct {
	frames  []*frame // nil: untouched
	touched int      // non-nil entries of frames
	// shared, parallel to frames, marks the frames that still alias an
	// imported image's storage (ImportFrames): readable in place, copied
	// by frameFor before the first write. nshared counts them, so a
	// memory that never imported, or has written every imported frame,
	// skips the test.
	shared  []bool
	nshared int
	// free holds frames the memory owned privately before a Reset, at
	// most KeepFrames, for take to hand out again on a first touch or
	// as the target of a copy-on-write copy.
	free []*frame
}

// KeepFrames bounds the frames Reset keeps for reuse (256 KiB): a
// test-scale run touches a few dozen, and a memory that ran a larger
// workload pins no more than this.
const KeepFrames = 64

// keepTable bounds the frame table Reset keeps (8 KiB of pointers).
const keepTable = 1024

// maxFrames bounds the frame table (16 GiB of simulated physical
// memory, a 32 MiB table). Frame numbers come from page-table entries,
// which count up from zero; one beyond this is a simulator bug.
const maxFrames = 1 << 22

// New returns an empty physical memory.
func New() *Memory { return &Memory{} }

func (m *Memory) frameFor(addr uint64) *frame {
	fn := addr >> FrameBits
	if fn >= uint64(len(m.frames)) {
		m.grow(fn)
	}
	f := m.frames[fn]
	switch {
	case f == nil:
		f = m.take()
		m.frames[fn] = f
		m.touched++
	case m.nshared != 0 && m.shared[fn]:
		own := m.take()
		*own = *f
		f = own
		m.frames[fn] = f
		m.shared[fn] = false
		m.nshared--
	}
	return f
}

// take returns a zeroed frame: a kept one if there is one.
func (m *Memory) take() *frame {
	n := len(m.free)
	if n == 0 {
		return new(frame)
	}
	f := m.free[n-1]
	m.free[n-1] = nil
	m.free = m.free[:n-1]
	*f = frame{}
	return f
}

// Reset empties the memory, as New leaves it, but keeps up to
// KeepFrames of the frames it owns privately, and a small frame table,
// for the next contents to use. A frame still shared with an imported
// image is never kept: it belongs to the image, which other memories
// may be reading.
func (m *Memory) Reset() {
	for fn, f := range m.frames {
		if f == nil {
			continue
		}
		if len(m.free) < KeepFrames && (m.nshared == 0 || !m.shared[fn]) {
			m.free = append(m.free, f)
		}
	}
	frames, shared, free := m.frames, m.shared, m.free
	if len(frames) > keepTable {
		frames, shared = nil, nil
	}
	clear(frames)
	clear(shared)
	*m = Memory{frames: frames, shared: shared, free: free}
}

// grow extends the frame table to hold frame fn, at least doubling it.
func (m *Memory) grow(fn uint64) {
	if fn >= maxFrames {
		panic(fmt.Sprintf("mem: physical address 0x%x is beyond the %d-frame table", fn<<FrameBits, maxFrames))
	}
	n := max(2*len(m.frames), int(fn)+1, 64)
	m.frames = append(m.frames, make([]*frame, n-len(m.frames))...)
	m.shared = append(m.shared, make([]bool, n-len(m.shared))...)
}

// peekFrame returns the frame containing addr, or nil if untouched.
func (m *Memory) peekFrame(addr uint64) *frame {
	if fn := addr >> FrameBits; fn < uint64(len(m.frames)) {
		return m.frames[fn]
	}
	return nil
}

// FramesTouched reports how many backing frames have been allocated.
func (m *Memory) FramesTouched() int { return m.touched }

// FrameImage is one backing frame keyed by its frame index (physical
// address >> FrameBits). Data is the frame itself, not a copy of it.
type FrameImage struct {
	Index uint64
	Data  *[FrameSize]byte
}

// ExportFrames hands the memory's non-zero frames over, sorted by frame
// index, and leaves the memory empty: the frames become the image's, so
// the export copies no frame contents. All-zero frames are omitted: an
// untouched frame and an allocated-but-zero frame read identically, so
// the omission is invisible to any Read and keeps checkpoints compact
// and deterministic.
func (m *Memory) ExportFrames() []FrameImage {
	out := make([]FrameImage, 0, m.touched)
	for idx, f := range m.frames {
		if f == nil || *f == (frame{}) {
			continue
		}
		out = append(out, FrameImage{Index: uint64(idx), Data: (*[FrameSize]byte)(f)})
	}
	*m = Memory{}
	return out
}

// ImportFrames replaces the memory's contents with the given frames,
// copy-on-write: the memory reads each frames[i].Data in place and
// copies a frame the first time it is written (or handed out by Frame),
// so an import costs one table entry per frame whatever the frames
// hold. The caller must not modify the frames afterwards; the memory
// never does, so any number of memories may import the same slice,
// concurrently.
func (m *Memory) ImportFrames(frames []FrameImage) {
	m.Reset()
	var top uint64
	for i := range frames {
		top = max(top, frames[i].Index+1)
	}
	if top == 0 {
		return
	}
	if top > uint64(len(m.frames)) {
		m.grow(top - 1)
	}
	for i := range frames {
		fn := frames[i].Index
		if m.frames[fn] == nil {
			m.touched++
			m.nshared++
		}
		m.frames[fn], m.shared[fn] = (*frame)(frames[i].Data), true
	}
}

// Frame returns a pointer to the backing frame containing addr,
// allocating it on first touch and taking a private copy of a frame
// still shared with an imported image, since the caller may write
// through it. The pointer stays valid until Reset (or ImportFrames,
// which resets) recycles the store or ExportFrames hands it over. The translated functional engine
// caches it to skip the frame-map lookup on its memory fast path;
// allocating on a read here is invisible because an all-zero frame reads
// identically to an untouched one and ExportFrames omits it.
func (m *Memory) Frame(addr uint64) *[FrameSize]byte {
	return (*[FrameSize]byte)(m.frameFor(addr))
}

// ByteAt returns the byte at addr (0 for untouched memory).
func (m *Memory) ByteAt(addr uint64) byte {
	f := m.peekFrame(addr)
	if f == nil {
		return 0
	}
	return f[addr&(FrameSize-1)]
}

// SetByte stores one byte at addr.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.frameFor(addr)[addr&(FrameSize-1)] = v
}

// Read fills buf with len(buf) bytes starting at addr. Reads may span
// frame boundaries.
func (m *Memory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (FrameSize - 1)
		n := FrameSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		if f := m.peekFrame(addr); f != nil {
			copy(buf[:n], f[off:off+n])
		} else {
			for i := range buf[:n] {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += n
	}
}

// Write stores buf at addr. Writes may span frame boundaries.
func (m *Memory) Write(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (FrameSize - 1)
		n := FrameSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		copy(m.frameFor(addr)[off:off+n], buf[:n])
		buf = buf[n:]
		addr += n
	}
}

// fast-path helpers: loads and stores of naturally aligned scalars are
// the common case in the simulator's inner loop, so avoid the generic
// span logic when the access fits in one frame.

// Read16 loads a little-endian 16-bit value.
func (m *Memory) Read16(addr uint64) uint16 {
	off := addr & (FrameSize - 1)
	if off <= FrameSize-2 {
		f := m.peekFrame(addr)
		if f == nil {
			return 0
		}
		return binary.LittleEndian.Uint16(f[off:])
	}
	var b [2]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// Read32 loads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint64) uint32 {
	off := addr & (FrameSize - 1)
	if off <= FrameSize-4 {
		f := m.peekFrame(addr)
		if f == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(f[off:])
	}
	var b [4]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Read64 loads a little-endian 64-bit value.
func (m *Memory) Read64(addr uint64) uint64 {
	off := addr & (FrameSize - 1)
	if off <= FrameSize-8 {
		f := m.peekFrame(addr)
		if f == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(f[off:])
	}
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write16 stores a little-endian 16-bit value.
func (m *Memory) Write16(addr uint64, v uint16) {
	off := addr & (FrameSize - 1)
	if off <= FrameSize-2 {
		binary.LittleEndian.PutUint16(m.frameFor(addr)[off:], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.Write(addr, b[:])
}

// Write32 stores a little-endian 32-bit value.
func (m *Memory) Write32(addr uint64, v uint32) {
	off := addr & (FrameSize - 1)
	if off <= FrameSize-4 {
		binary.LittleEndian.PutUint32(m.frameFor(addr)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// Write64 stores a little-endian 64-bit value.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & (FrameSize - 1)
	if off <= FrameSize-8 {
		binary.LittleEndian.PutUint64(m.frameFor(addr)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(addr, b[:])
}
