package mem

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestZeroValueAndUntouchedReadsAsZero(t *testing.T) {
	var m Memory
	if m.ByteAt(12345) != 0 {
		t.Error("untouched byte != 0")
	}
	if m.Read64(99999) != 0 {
		t.Error("untouched word != 0")
	}
	buf := make([]byte, 64)
	m.Read(1<<40, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched span != 0")
		}
	}
	if m.framesHeld() != 0 {
		t.Error("reads allocated frames")
	}
}

func TestScalarRoundTrips(t *testing.T) {
	m := New()
	m.SetByte(10, 0xAB)
	if got := m.ByteAt(10); got != 0xAB {
		t.Errorf("byte: %#x", got)
	}
	m.Write16(100, 0xBEEF)
	if got := m.Read16(100); got != 0xBEEF {
		t.Errorf("u16: %#x", got)
	}
	m.Write32(200, 0xDEADBEEF)
	if got := m.Read32(200); got != 0xDEADBEEF {
		t.Errorf("u32: %#x", got)
	}
	m.Write64(300, 0x0123456789ABCDEF)
	if got := m.Read64(300); got != 0x0123456789ABCDEF {
		t.Errorf("u64: %#x", got)
	}
}

func TestFrameBoundarySpans(t *testing.T) {
	m := New()
	// Write a 64-bit value straddling a frame boundary.
	addr := uint64(FrameSize - 3)
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("straddling u64: %#x", got)
	}
	// Bulk write across several frames.
	data := make([]byte, 3*FrameSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := uint64(5*FrameSize - 100)
	m.Write(base, data)
	got := make([]byte, len(data))
	m.Read(base, got)
	if !bytes.Equal(data, got) {
		t.Error("multi-frame span mismatch")
	}
}

func TestSparseness(t *testing.T) {
	m := New()
	m.SetByte(0, 1)
	m.SetByte(1<<30, 1)
	if got := m.framesHeld(); got != 2 {
		t.Errorf("frames touched = %d, want 2", got)
	}
}

// Property: what is written is read back, for all widths and addresses.
func TestReadWriteProperty(t *testing.T) {
	m := New()
	if err := quick.Check(func(addr uint64, v uint64, width uint8) bool {
		addr %= 1 << 30
		switch width % 4 {
		case 0:
			m.SetByte(addr, byte(v))
			return m.ByteAt(addr) == byte(v)
		case 1:
			m.Write16(addr, uint16(v))
			return m.Read16(addr) == uint16(v)
		case 2:
			m.Write32(addr, uint32(v))
			return m.Read32(addr) == uint32(v)
		default:
			m.Write64(addr, v)
			return m.Read64(addr) == v
		}
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: little-endian composition — a 64-bit write is byte-wise
// consistent with ByteAt.
func TestEndiannessProperty(t *testing.T) {
	m := New()
	if err := quick.Check(func(addr uint64, v uint64) bool {
		addr %= 1 << 30
		m.Write64(addr, v)
		for i := 0; i < 8; i++ {
			if m.ByteAt(addr+uint64(i)) != byte(v>>(8*i)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// testImage is a small imported image: frames 1..4 filled with a
// per-frame pattern, plus an all-zero frame 9.
func testImage() []FrameImage {
	fs := make([]FrameImage, 5)
	for i := range fs {
		fs[i].Data = new([FrameSize]byte)
	}
	for i := range fs[:4] {
		fs[i].Index = uint64(i + 1)
		for j := range fs[i].Data {
			fs[i].Data[j] = byte(i*31 + j*7 + 1)
		}
	}
	fs[4].Index = 9
	return fs
}

// cloneImage copies an image's frames, not just their pointers.
func cloneImage(fs []FrameImage) []FrameImage {
	out := make([]FrameImage, len(fs))
	for i, f := range fs {
		data := *f.Data
		out[i] = FrameImage{Index: f.Index, Data: &data}
	}
	return out
}

// eagerImport is the reference ImportFrames is checked against: every
// frame copied into storage the memory owns.
func eagerImport(fs []FrameImage) *Memory {
	m := New()
	for i := range fs {
		m.Write(fs[i].Index<<FrameBits, fs[i].Data[:])
	}
	return m
}

// TestImportFramesIsCopyOnWrite: an import shares the image's storage,
// so whatever the memory is then asked to do — scalar and bulk writes,
// Frame() pointers written through, inside and outside the imported
// frames, straddling their boundaries — the image must stay byte for
// byte what it was, while the memory behaves exactly like one that
// copied every frame up front.
func TestImportFramesIsCopyOnWrite(t *testing.T) {
	fs := testImage()
	pristine := cloneImage(fs)

	m, other := New(), New()
	m.ImportFrames(fs)
	other.ImportFrames(fs)
	ref := eagerImport(pristine)
	if got := m.framesHeld(); got != len(fs) {
		t.Fatalf("import touched %d frames, want %d", got, len(fs))
	}

	if err := quick.Check(func(addr uint64, v uint64, op uint8) bool {
		addr %= 12 << FrameBits // frames 0..11: imported, zero, and untouched
		switch op % 6 {
		case 0:
			m.SetByte(addr, byte(v))
			ref.SetByte(addr, byte(v))
		case 1:
			m.Write16(addr, uint16(v))
			ref.Write16(addr, uint16(v))
		case 2:
			m.Write32(addr, uint32(v))
			ref.Write32(addr, uint32(v))
		case 3:
			m.Write64(addr, v)
			ref.Write64(addr, v)
		case 4:
			buf := bytes.Repeat([]byte{byte(v), byte(v >> 8), byte(v >> 16)}, 1+int(v%3000))
			m.Write(addr, buf)
			ref.Write(addr, buf)
		default:
			// What the translated engine does: cache the frame pointer,
			// then store through it.
			m.Frame(addr)[addr&(FrameSize-1)] = byte(v)
			ref.Frame(addr)[addr&(FrameSize-1)] = byte(v)
		}
		return m.Read64(addr) == ref.Read64(addr) && m.ByteAt(addr) == ref.ByteAt(addr)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	if !reflect.DeepEqual(fs, pristine) {
		t.Fatal("writes to an importing memory reached the imported image")
	}
	if got, want := m.ExportFrames(), ref.ExportFrames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("export after copy-on-write traffic differs from the eager-copy reference (%d vs %d frames)", len(got), len(want))
	}
	// The second importer saw none of it.
	if got := other.ExportFrames(); !reflect.DeepEqual(got, pristine[:4]) {
		t.Fatal("one importer's writes are visible through another's")
	}
}

// TestImportersDivergeIndependently: two memories over one image each
// see their own writes and the image's bytes everywhere else; a shared
// all-zero frame stays out of ExportFrames until its importer writes it.
func TestImportersDivergeIndependently(t *testing.T) {
	fs := testImage()
	a, b := New(), New()
	a.ImportFrames(fs)
	b.ImportFrames(fs)

	addr := uint64(2<<FrameBits + 40)
	was := a.Read64(addr)
	a.Write64(addr, 0xA)
	b.Write64(addr+8, 0xB)
	if a.Read64(addr) != 0xA || b.Read64(addr) != was {
		t.Error("a's write: not read back by a, or visible through b")
	}
	if b.Read64(addr+8) != 0xB || a.Read64(addr+8) == 0xB {
		t.Error("b's write: not read back by b, or visible through a")
	}
	if binary.LittleEndian.Uint64(fs[1].Data[40:]) != was {
		t.Error("a write reached the imported image")
	}
	// Writing the zero frame makes it a's own, and exported by a alone.
	a.SetByte(9<<FrameBits, 1)
	if len(a.ExportFrames()) != 5 || fs[4].Data[0] != 0 {
		t.Error("a write to the shared zero frame leaked, or was lost")
	}
	out := b.ExportFrames()
	if len(out) != 4 {
		t.Fatalf("exported %d frames, want the 4 non-zero ones", len(out))
	}
	for _, f := range out {
		if f.Index == 9 {
			t.Error("an unwritten all-zero shared frame was exported")
		}
	}
}

// TestExportFramesHandsOver: an export moves the memory's frames into
// the image — the same storage the memory wrote, no copy — and leaves
// the memory empty, so nothing it does afterwards reaches the image.
func TestExportFramesHandsOver(t *testing.T) {
	m := New()
	const frames = 64
	for i := uint64(0); i < frames; i++ {
		m.Write64(i<<FrameBits, i+1)
	}
	m.SetByte(frames<<FrameBits, 0) // allocated but all zero: omitted
	first := m.Frame(0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := m.ExportFrames()
	runtime.ReadMemStats(&after)
	if len(out) != frames || out[0].Data != first {
		t.Fatalf("exported %d frames (frame 0 at %p, memory's at %p), want %d handed over in place",
			len(out), out[0].Data, first, frames)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= frames*FrameSize/8 {
		t.Errorf("exporting %d frames allocated %d bytes: frames are being copied", frames, n)
	}
	if m.framesHeld() != 0 || m.Read64(0) != 0 {
		t.Fatal("the memory still holds frames after handing them over")
	}
	m.Write64(0, 99)
	if got := binary.LittleEndian.Uint64(out[0].Data[:]); got != 1 {
		t.Fatalf("a write after the export reached the image: frame 0 reads %d, want 1", got)
	}
}

// TestImportFramesAllocatesNoFrame: an import is two maps, not a copy
// of every frame — what makes restoring a checkpoint cost the same
// whether the window behind it writes four pages or four thousand.
func TestImportFramesAllocatesNoFrame(t *testing.T) {
	fs := make([]FrameImage, 256)
	for i := range fs {
		fs[i].Index = uint64(i)
		fs[i].Data = &[FrameSize]byte{1}
	}
	m := New()
	if allocs := testing.AllocsPerRun(10, func() { m.ImportFrames(fs) }); allocs >= float64(len(fs))/4 {
		t.Errorf("importing %d frames made %.0f allocations: frames are being copied", len(fs), allocs)
	}
	m.SetByte(3<<FrameBits, 2) // the one frame written is the one frame copied
	if allocs := testing.AllocsPerRun(10, func() { m.SetByte(3<<FrameBits+1, 2) }); allocs != 0 {
		t.Errorf("a second write to an owned frame made %.0f allocations", allocs)
	}
}

// TestResetKeepsOnlyItsOwnFrames: Reset empties the memory and keeps
// the frames it owned — written copies of imported frames and frames
// it allocated — but never a frame still shared with the image. The
// next contents then reuse the kept frames, reading zero wherever they
// were not written, and allocate none, while the image stays intact.
func TestResetKeepsOnlyItsOwnFrames(t *testing.T) {
	fs := testImage()
	pristine := cloneImage(fs)
	m := New()
	m.ImportFrames(fs)
	m.SetByte(2<<FrameBits, 0xEE) // frame 2: copied, now its own
	for fn := uint64(20); fn < 30; fn++ {
		m.Write64(fn<<FrameBits+8, ^fn) // ten frames of its own
	}
	_ = m.Read64(3 << FrameBits) // frame 3: read, still shared
	m.Reset()
	if m.framesHeld() != 0 || len(m.free) != 11 {
		t.Fatalf("after Reset: %d frames touched, %d kept; want 0 and the 11 it owned", m.framesHeld(), len(m.free))
	}
	for _, f := range m.free {
		for i := range fs {
			if f == (*frame)(fs[i].Data) {
				t.Fatalf("Reset kept frame %d of the image", fs[i].Index)
			}
		}
	}

	// Reuse every kept frame, again and again: first touch reads zero
	// around the one word written, and the image never sees a write.
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset()
		for fn := uint64(0); fn < 11; fn++ {
			m.Write64(fn<<FrameBits+16, 0xAB)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset and writing 11 frames made %.0f allocations, want 0 (the kept frames)", allocs)
	}
	for fn := uint64(0); fn < 40; fn++ {
		if got := m.Read64(fn<<FrameBits + 8); got != 0 {
			t.Fatalf("frame %d reads %#x at offset 8 after Reset, want 0", fn, got)
		}
	}
	m.ImportFrames(fs) // resets: the 11 frames are kept again
	for fn := uint64(0); fn < 12; fn++ {
		m.Write64(fn<<FrameBits, fn)
	}
	if !reflect.DeepEqual(fs, pristine) {
		t.Fatal("a write through a recycled frame reached the imported image")
	}
}

// TestResetKeepsAtMostKeepFrames: a memory that touched more frames
// than KeepFrames keeps KeepFrames, and a large frame table is dropped.
func TestResetKeepsAtMostKeepFrames(t *testing.T) {
	m := New()
	for fn := uint64(0); fn < 2*KeepFrames; fn++ {
		m.SetByte(fn<<FrameBits, 1)
	}
	m.SetByte(2*keepTable<<FrameBits, 1)
	m.Reset()
	if len(m.free) != KeepFrames || m.frames != nil {
		t.Errorf("Reset kept %d frames and a %d-entry table, want %d and none", len(m.free), len(m.frames), KeepFrames)
	}
}

// TestViewIsReadOnlyAndCurrentPerEpoch: View hands out the frame a
// read would use — the one zero frame for untouched memory, a shared
// frame itself — allocating nothing, and Epoch moves whenever a write
// puts a different frame behind an address, so a reader knows when to
// take its view again.
func TestViewIsReadOnlyAndCurrentPerEpoch(t *testing.T) {
	fs := testImage()
	m := New()
	m.ImportFrames(fs)
	ep := m.Epoch()
	var untouched, shared *[FrameSize]byte
	if allocs := testing.AllocsPerRun(10, func() {
		untouched, shared = m.View(40<<FrameBits), m.View(1<<FrameBits+7)
	}); allocs != 0 {
		t.Errorf("View made %.0f allocations", allocs)
	}
	if *untouched != ([FrameSize]byte{}) || untouched != m.View(50<<FrameBits) {
		t.Error("untouched memory is not viewed through the one zero frame")
	}
	if shared != fs[0].Data || m.framesHeld() != len(fs) || m.Epoch() != ep {
		t.Fatal("viewing a shared frame copied it")
	}

	m.SetByte(1<<FrameBits, 0xEE) // copy on write
	if m.Epoch() == ep || m.View(1<<FrameBits) == shared || m.View(1 << FrameBits)[0] != 0xEE {
		t.Error("a copy on write left the epoch or the view where they were")
	}
	ep = m.Epoch()
	m.SetByte(1<<FrameBits+1, 0xEF) // the frame is the memory's own now
	if m.Epoch() != ep {
		t.Error("a write to an owned frame moved the epoch")
	}
	m.Write64(40<<FrameBits, 1) // first write
	if m.Epoch() == ep || m.View(40<<FrameBits) == untouched {
		t.Error("allocating a frame left the epoch or the view where they were")
	}
	if *untouched != ([FrameSize]byte{}) || fs[0].Data[0] == 0xEE {
		t.Fatal("a write reached the zero frame or the image")
	}

	m.Share(2<<FrameBits, fs[0].Data) // replaces frame 2 with frame 1's image
	if m.View(2<<FrameBits) != fs[0].Data || m.Read64(2<<FrameBits) != binary.LittleEndian.Uint64(fs[0].Data[:]) {
		t.Error("Share did not put the frame behind the address")
	}
}
