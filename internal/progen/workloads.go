package progen

import (
	"hbat/internal/mem"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

// Workloads returns every workload in Table 3 order, for the tests
// that sweep them all.
func Workloads() []*workload.Workload {
	var out []*workload.Workload
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

// ReadImage fills buf with im's bytes from vaddr on (zero where it
// holds no data): what a loaded program's memory reads before it runs.
func ReadImage(im *prog.Image, vaddr uint64, buf []byte) {
	for len(buf) > 0 {
		off := vaddr & (mem.FrameSize - 1)
		n := min(uint64(len(buf)), mem.FrameSize-off)
		if f := im.Frame(vaddr); f != nil {
			copy(buf[:n], f[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		vaddr += n
	}
}
