// Package trace captures and replays data-reference traces. A trace is
// the sequence of (virtual address, read/write) data references a
// program makes, in program order — the input that drove trace-driven
// TLB studies of the paper's era (e.g. Chen/Borg/Jouppi [CBJ92], which
// Figure 6 methodologically follows). Captured traces replay into the
// functional TLB models orders of magnitude faster than re-simulating,
// and export to other tools.
//
// The on-disk format is compact and streaming: a small header, then one
// varint-encoded record per reference holding the zig-zag delta from
// the previous address (data references are strongly local, so deltas
// are short) with the read/write flag folded into bit 0.
package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/prog"
)

// Record is one data reference.
type Record struct {
	Addr  uint64
	Write bool
}

// magic identifies the trace format ("HBT1").
var magic = [4]byte{'H', 'B', 'T', '1'}

// Header describes a trace.
type Header struct {
	Workload string
	PageSize uint64
}

// Writer streams records to an io.Writer.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	count    uint64
	header   bool
	hdr      Header
}

// NewWriter creates a trace writer; the header is emitted on the first
// record (or on Close for an empty trace).
func NewWriter(w io.Writer, hdr Header) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10), hdr: hdr}
}

func (w *Writer) writeHeader() error {
	if w.header {
		return nil
	}
	w.header = true
	if _, err := w.w.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], w.hdr.PageSize)
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	name := []byte(w.hdr.Workload)
	n = binary.PutUvarint(buf[:], uint64(len(name)))
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(name)
	return err
}

// zigzag encodes a signed delta as unsigned.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Add appends one record.
func (w *Writer) Add(r Record) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	delta := zigzag(int64(r.Addr - w.prevAddr))
	v := delta << 1
	if r.Write {
		v |= 1
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	w.prevAddr = r.Addr
	w.count++
	return nil
}

// Count reports how many records have been written.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the writer (emitting the header even if empty).
func (w *Writer) Close() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader streams records from an io.Reader.
type Reader struct {
	r        *bufio.Reader
	prevAddr uint64
	hdr      Header
}

// NewReader opens a trace, reading and validating its header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("trace: bad magic (not an HBT1 trace)")
	}
	ps, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading page size: %w", err)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 4096 {
		return nil, errors.New("trace: implausible workload-name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	return &Reader{r: br, hdr: Header{Workload: string(name), PageSize: ps}}, nil
}

// Header returns the trace's header.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next record, or io.EOF at the end of the trace.
func (r *Reader) Next() (Record, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: %w", err)
	}
	write := v&1 != 0
	addr := r.prevAddr + uint64(unzigzag(v>>1))
	r.prevAddr = addr
	return Record{Addr: addr, Write: write}, nil
}

// ForEach streams every remaining record through f, stopping on error.
func (r *Reader) ForEach(f func(Record) error) error {
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := f(rec); err != nil {
			return err
		}
	}
}

// CaptureContext functionally executes p on the translated engine and
// writes its data-reference trace. maxRefs caps the trace length (0 =
// the whole run); a capped capture still runs to Halt and drops the
// references past the cap. A cancelled ctx stops the functional run
// promptly (checked every few thousand instructions) and returns
// ctx.Err().
func CaptureContext(ctx context.Context, p *prog.Program, pageSize uint64, w io.Writer, maxRefs uint64) (uint64, error) {
	m, err := emu.New(p, pageSize)
	if err != nil {
		return 0, err
	}
	c := capture{w: NewWriter(w, Header{Workload: p.Name, PageSize: pageSize}), max: maxRefs}
	e := sblock.New(m)
	e.SetCancel(ctx)
	if err := e.Warm(0, &c); err != nil {
		return c.w.Count(), err
	}
	if c.err != nil {
		return c.w.Count(), c.err
	}
	return c.w.Count(), c.w.Close()
}

// capture is the Warmer that writes a run's data references, up to max
// (0 = all) and until the first write error.
type capture struct {
	w   *Writer
	max uint64
	err error
}

func (c *capture) Block(*sblock.BlockExec) {}

func (c *capture) Ref(vaddr, _ uint64, write bool, _ uint64) {
	if c.err == nil && (c.max == 0 || c.w.Count() < c.max) {
		c.err = c.w.Add(Record{Addr: vaddr, Write: write})
	}
}
