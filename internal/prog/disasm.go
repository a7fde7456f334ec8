package prog

import (
	"fmt"
	"io"
	"sort"

	"hbat/internal/isa"
)

// Disassemble writes a readable listing of the program: every
// instruction with its address, synthesized labels at branch targets,
// and a summary of the initial data segments. It is development
// tooling for inspecting what the builder and register allocator
// produced (spill code included).
func (p *Program) Disassemble(w io.Writer) {
	// Collect control-flow targets and name them in address order.
	targets := map[uint64]string{}
	var order []uint64
	for i := range p.Code {
		in := &p.Code[i]
		if in.IsCtrl() && in.Op != isa.Jr && in.Op != isa.Jalr && in.Target != 0 {
			if _, ok := targets[in.Target]; !ok {
				targets[in.Target] = ""
				order = append(order, in.Target)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for i, t := range order {
		targets[t] = fmt.Sprintf("L%d", i)
	}

	fmt.Fprintf(w, "program %s: %d instructions, entry 0x%x, budget %s, %d spill slots\n",
		p.Name, len(p.Code), p.Entry, p.Budget, p.SpillSlots)
	for i := range p.Code {
		pc := CodeBase + uint64(i)*isa.InstBytes
		if lbl, ok := targets[pc]; ok {
			fmt.Fprintf(w, "%s:\n", lbl)
		}
		in := &p.Code[i]
		fmt.Fprintf(w, "  %08x  %s", pc, in.String())
		if in.IsCtrl() && in.Op != isa.Jr && in.Op != isa.Jalr {
			if lbl, ok := targets[in.Target]; ok {
				fmt.Fprintf(w, "   # -> %s", lbl)
			}
		}
		fmt.Fprintln(w)
	}
	if len(p.Data) > 0 {
		fmt.Fprintln(w, "data:")
		for _, seg := range p.Data {
			fmt.Fprintf(w, "  %08x  %d bytes\n", seg.Addr, seg.Size)
		}
	}
	if len(p.Regions) > 0 {
		fmt.Fprintln(w, "regions:")
		for _, r := range p.Regions {
			fmt.Fprintf(w, "  %-6s %08x +%d %v\n", r.Name, r.Base, r.Size, r.Perm)
		}
	}
}
