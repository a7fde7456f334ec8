package prog

import (
	"encoding/binary"
	"fmt"
	"math"

	"hbat/internal/mem"
	"hbat/internal/vm"
)

// DataSeg is one initial-data segment: Size bytes at Addr, whose
// contents are the program's Image there.
type DataSeg struct {
	Addr uint64
	Size uint64
}

// Image is a program's initial data: mem.FrameSize-byte frames of the
// data segment, indexed by virtual address, with no frame where nothing
// was written. The builder writes it; a finalized program's image is
// never written again, so Load maps its frames copy-on-write into every
// machine that runs the program, and a checkpoint may keep them.
type Image struct {
	frames []*[mem.FrameSize]byte // frames[i] holds DataBase + i*FrameSize; nil reads as zero
}

// Frame returns the image frame holding vaddr, or nil where the image
// holds no data.
func (im *Image) Frame(vaddr uint64) *[mem.FrameSize]byte {
	if vaddr < DataBase {
		return nil
	}
	if i := (vaddr - DataBase) >> mem.FrameBits; i < uint64(len(im.frames)) {
		return im.frames[i]
	}
	return nil
}

// frameFor returns the frame holding vaddr, allocating it on first
// write. The caller has checked that vaddr lies in the data segment.
func (im *Image) frameFor(vaddr uint64) *[mem.FrameSize]byte {
	i := (vaddr - DataBase) >> mem.FrameBits
	if i >= uint64(len(im.frames)) {
		im.frames = append(im.frames, make([]*[mem.FrameSize]byte, i+1-uint64(len(im.frames)))...)
	}
	f := im.frames[i]
	if f == nil {
		f = new([mem.FrameSize]byte)
		im.frames[i] = f
	}
	return f
}

// Seg is an initial-data segment declared by Builder.Segment. The
// setters write the image directly and panic on an index outside the
// segment; a byte never set keeps what the image holds (zero, unless
// an overlapping segment set it). A Seg must not be used after
// Finalize.
type Seg struct {
	im         *Image // nil: the declaration failed, and writes are dropped
	addr, size uint64
}

// Segment declares size bytes at addr as initial data and returns the
// segment for the caller to fill. Segments load in declaration order,
// which fixes the physical page each data page gets; where two
// overlap, the byte written last wins.
func (b *Builder) Segment(addr, size uint64) Seg {
	if addr < DataBase || addr+size > DataBase+DataSize || addr+size < addr {
		b.fail("initial data at 0x%x (%d bytes) lies outside the data segment", addr, size)
		return Seg{addr: addr, size: size}
	}
	b.data = append(b.data, DataSeg{Addr: addr, Size: size})
	return Seg{im: &b.image, addr: addr, size: size}
}

// SetByte sets byte i of the segment.
func (s Seg) SetByte(i int, v byte) {
	if a := s.at(i, 1); s.im != nil {
		s.im.frameFor(a)[a&(mem.FrameSize-1)] = v
	}
}

// SetWord sets 64-bit little-endian word i of the segment (bytes 8i to
// 8i+7).
func (s Seg) SetWord(i int, w uint64) {
	a := s.at(8*i, 8)
	if off := a & (mem.FrameSize - 1); s.im != nil && off <= mem.FrameSize-8 {
		binary.LittleEndian.PutUint64(s.im.frameFor(a)[off:], w)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], w)
	s.write(a, buf[:])
}

// SetFloat sets word i of the segment to the float64 v.
func (s Seg) SetFloat(i int, v float64) { s.SetWord(i, math.Float64bits(v)) }

// at returns the address of the n bytes at offset off.
func (s Seg) at(off, n int) uint64 {
	if off < 0 || uint64(off)+uint64(n) > s.size {
		panic(fmt.Sprintf("prog: bytes %d..%d outside the %d-byte segment at 0x%x", off, off+n-1, s.size, s.addr))
	}
	return s.addr + uint64(off)
}

// write copies p into the image at a, frame by frame.
func (s Seg) write(a uint64, p []byte) {
	if s.im == nil {
		return
	}
	for len(p) > 0 {
		off := a & (mem.FrameSize - 1)
		n := copy(s.im.frameFor(a)[off:], p)
		p = p[n:]
		a += uint64(n)
	}
}

// Load maps the program's initial data into a new machine's address
// space and memory. It translates, for writing, every page each data
// segment covers, segment by segment in declaration order, so each
// page gets the physical page that copying the segments' bytes in
// would give it; the memory then reads each image frame in place,
// copy-on-write. A page smaller than a frame takes a copy of its bytes
// instead, since one frame there holds several pages.
func (p *Program) Load(as *vm.AddressSpace, m *mem.Memory) error {
	ps := as.PageSize()
	for _, seg := range p.Data {
		end := seg.Addr + seg.Size
		for va := seg.Addr; va < end; va = va&^(ps-1) + ps {
			pa, err := as.Translate(va, vm.PermWrite)
			if err != nil {
				return fmt.Errorf("loading data segment at 0x%x: %w", seg.Addr, err)
			}
			vpage, page := va&^(ps-1), pa&^(ps-1)
			if ps < mem.FrameSize {
				if f := p.Image.Frame(vpage); f != nil {
					off := vpage & (mem.FrameSize - 1)
					m.Write(page, f[off:off+ps])
				}
				continue
			}
			for o := uint64(0); o < ps; o += mem.FrameSize {
				if f := p.Image.Frame(vpage + o); f != nil {
					m.Share(page+o, f)
				}
			}
		}
	}
	return nil
}
