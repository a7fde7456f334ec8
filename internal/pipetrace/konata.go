package pipetrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// konataCmd is one timeline command, ordered by cycle then by emission
// order within a cycle (ord), so starts/ends interleave deterministically.
type konataCmd struct {
	cycle int64
	ord   int
	text  string
}

// WriteKonata exports the recorded events in the Konata/Kanata pipeline
// viewer log format (https://github.com/shioyadan/Konata). Stage lanes:
// F (fetch-queue residence), D (ROB wait before issue), X (execute),
// C (completion to retirement). Squashed instructions retire with the
// flush type; translation detail (TLB misses, walks, port rejections)
// is attached as hover text.
func (r *Recorder) WriteKonata(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	events := r.Events()
	lives, minCycle, _ := lifetimes(events)
	fmt.Fprint(bw, "Kanata\t0004\n")
	if len(lives) == 0 {
		return bw.Flush()
	}

	var cmds []konataCmd
	ord := 0
	add := func(cycle int64, format string, args ...any) {
		cmds = append(cmds, konataCmd{cycle: cycle, ord: ord, text: fmt.Sprintf(format, args...)})
		ord++
	}

	retireID := 0
	for i, l := range lives {
		id := i // Konata ids are dense and first-seen ordered; seq order is.
		start := l.fetch
		if start < 0 {
			start = firstNonNeg(l.dispatch, l.issue, l.complete, minCycle)
		}
		end := l.retired()
		add(start, "I\t%d\t%d\t0", id, id)
		add(start, "L\t%d\t0\t0x%x: %s", id, l.pc, l.disasm())
		if detail := l.detailText(); detail != "" {
			add(start, "L\t%d\t1\t%s", id, detail)
		}

		// Stage transitions: start each stage when observed, ending the
		// previous one at the same cycle.
		type tr struct {
			cycle int64
			name  string
		}
		var trs []tr
		if l.fetch >= 0 {
			trs = append(trs, tr{l.fetch, "F"})
		}
		if l.dispatch >= 0 {
			trs = append(trs, tr{l.dispatch, "D"})
		}
		if l.issue >= 0 {
			trs = append(trs, tr{l.issue, "X"})
		}
		if l.complete >= 0 {
			trs = append(trs, tr{l.complete, "C"})
		}
		for j, t := range trs {
			if j > 0 {
				add(t.cycle, "E\t%d\t0\t%s", id, trs[j-1].name)
			}
			add(t.cycle, "S\t%d\t0\t%s", id, t.name)
		}
		if end < 0 {
			// Still in flight when the window closed: leave the last
			// stage open through the final recorded cycle.
			continue
		}
		if len(trs) > 0 {
			add(end, "E\t%d\t0\t%s", id, trs[len(trs)-1].name)
		}
		if l.squash >= 0 && l.commit < 0 {
			add(end, "R\t%d\t%d\t1", id, retireID)
		} else {
			add(end, "R\t%d\t%d\t0", id, retireID)
			retireID++
		}
	}

	sort.SliceStable(cmds, func(i, j int) bool {
		if cmds[i].cycle != cmds[j].cycle {
			return cmds[i].cycle < cmds[j].cycle
		}
		return cmds[i].ord < cmds[j].ord
	})

	cur := cmds[0].cycle
	fmt.Fprintf(bw, "C=\t%d\n", cur)
	for _, c := range cmds {
		if c.cycle > cur {
			fmt.Fprintf(bw, "C\t%d\n", c.cycle-cur)
			cur = c.cycle
		}
		fmt.Fprintln(bw, c.text)
	}
	return bw.Flush()
}

// detailText renders an instruction's translation/memory annotations
// for the viewer's hover pane ("" when it has none).
func (l *life) detailText() string {
	s := ""
	app := func(format string, args ...any) {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf(format, args...)
	}
	if l.tlbMisses > 0 {
		app("tlb miss x%d (walk %d cycles)", l.tlbMisses, l.walkCycles)
	}
	if l.tlbExtra > 0 {
		app("tlb extra latency %d", l.tlbExtra)
	}
	if l.noPorts > 0 {
		app("tlb no-port retries x%d", l.noPorts)
	}
	if l.dcacheMiss > 0 {
		app("dcache miss x%d", l.dcacheMiss)
	}
	if l.cachePorts > 0 {
		app("dcache no-port retries x%d", l.cachePorts)
	}
	if l.storeWaits > 0 {
		app("store-forward waits x%d", l.storeWaits)
	}
	if l.fault {
		app("protection fault")
	}
	return s
}

// firstNonNeg returns the first argument >= 0, else the fallback.
func firstNonNeg(a, b, c, fallback int64) int64 {
	switch {
	case a >= 0:
		return a
	case b >= 0:
		return b
	case c >= 0:
		return c
	}
	return fallback
}
