package pipetrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteSummary renders a plain-text report of the recorded window: the
// event census, the translation/memory stall causes ranked by weight,
// and the topN longest-latency instructions (fetch to retirement).
func (r *Recorder) WriteSummary(w io.Writer, topN int) error {
	if topN <= 0 {
		topN = 10
	}
	bw := bufio.NewWriterSize(w, 32<<10)
	events := r.Events()
	lives, minCycle, maxCycle := lifetimes(events)

	fmt.Fprintf(bw, "pipeline trace summary\n")
	if len(events) == 0 {
		fmt.Fprintf(bw, "  no events recorded (window empty or tracing saw no activity)\n")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "  cycles %d..%d, %d events held (%d emitted, %d overwritten), %d instructions\n",
		minCycle, maxCycle, r.Len(), r.Total(), r.Dropped(), len(lives))

	// Event census in kind order.
	var counts [numKinds]uint64
	for i := range events {
		counts[events[i].Kind]++
	}
	fmt.Fprintf(bw, "\nevent census\n")
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(bw, "  %-20s %d\n", k.String(), counts[k])
		}
	}

	// Stall causes ranked by total cycles lost in the window. Replayed
	// requests cost one cycle per rejection; walks cost their latency.
	type cause struct {
		name   string
		cycles uint64
	}
	var walkCycles, squashed uint64
	for i := range events {
		switch events[i].Kind {
		case KWalkEnd:
			walkCycles += uint64(events[i].Arg)
		case KSquash:
			squashed++
		}
	}
	causes := []cause{
		{"page-table walks", walkCycles},
		{"tlb port conflicts (retry cycles)", counts[KTLBNoPort]},
		{"dcache port conflicts (retry cycles)", counts[KDCachePort]},
		{"store-forward waits (retry cycles)", counts[KStoreWait]},
		{"store commit retries", counts[KCommitRetry]},
		{"squashed instructions", squashed},
	}
	sort.SliceStable(causes, func(i, j int) bool { return causes[i].cycles > causes[j].cycles })
	fmt.Fprintf(bw, "\ntop stall causes (cycles or events in window)\n")
	for _, c := range causes {
		if c.cycles > 0 {
			fmt.Fprintf(bw, "  %-36s %d\n", c.name, c.cycles)
		}
	}

	// Longest-latency retired instructions.
	type lat struct {
		l       *life
		latency int64
	}
	var lats []lat
	for _, l := range lives {
		end := l.retired()
		if l.fetch < 0 || end < 0 {
			continue
		}
		lats = append(lats, lat{l, end - l.fetch})
	}
	sort.SliceStable(lats, func(i, j int) bool {
		if lats[i].latency != lats[j].latency {
			return lats[i].latency > lats[j].latency
		}
		return lats[i].l.seq < lats[j].l.seq
	})
	if len(lats) > topN {
		lats = lats[:topN]
	}
	fmt.Fprintf(bw, "\nlongest-latency instructions (fetch to retire)\n")
	fmt.Fprintf(bw, "  %6s %10s %-28s %6s  %s\n", "cycles", "seq", "pc/disasm", "fate", "detail")
	for _, x := range lats {
		fate := "commit"
		if x.l.squash >= 0 && x.l.commit < 0 {
			fate = "squash"
		}
		detail := x.l.detailText()
		if detail == "" {
			detail = "-"
		}
		fmt.Fprintf(bw, "  %6d %10d %-28s %6s  %s\n",
			x.latency, x.l.seq, fmt.Sprintf("0x%x %s", x.l.pc, x.l.disasm()), fate, detail)
	}
	return bw.Flush()
}
