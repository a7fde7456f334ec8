// Package emu is the functional (untimed) emulator for the simulated
// ISA. It defines the architected behaviour of a program: the timing
// pipelines in internal/cpu must commit exactly the instruction stream
// and final state this emulator produces, which the integration tests
// check. It also drives trace-based studies (the paper's Figure 6 TLB
// miss-rate experiment) via the OnMemRef hook.
package emu

import (
	"errors"
	"fmt"

	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/prog"
	"hbat/internal/vm"
)

// ErrHalted is returned by Step once the program has executed Halt.
var ErrHalted = errors.New("emu: machine halted")

// Machine is a functional processor state bound to one program.
type Machine struct {
	Prog *prog.Program
	AS   *vm.AddressSpace
	Mem  *mem.Memory

	Regs [isa.NumRegs]uint64
	PC   uint64

	Halted bool

	// Counts of retired operations.
	InstCount   uint64
	LoadCount   uint64
	StoreCount  uint64
	BranchCount uint64
	TakenCount  uint64

	// OnMemRef, when non-nil, observes every data reference (virtual
	// address, write flag) in program order.
	OnMemRef func(vaddr uint64, write bool)
}

// New loads prog into a fresh machine with the given page size.
func New(p *prog.Program, pageSize uint64) (*Machine, error) {
	m := &Machine{
		Prog: p,
		AS:   vm.NewAddressSpace(pageSize),
		Mem:  mem.New(),
		PC:   p.Entry,
	}
	for _, r := range p.Regions {
		m.AS.AddRegion(r)
	}
	for reg, v := range p.InitRegs {
		m.Regs[reg] = v
	}
	if err := p.Load(m.AS, m.Mem); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	return m, nil
}

func (m *Machine) loadRaw(vaddr uint64, width int) (uint64, error) {
	pa, err := m.AS.Translate(vaddr, vm.PermRead)
	if err != nil {
		return 0, err
	}
	switch width {
	case 1:
		return uint64(m.Mem.ByteAt(pa)), nil
	case 2:
		return uint64(m.Mem.Read16(pa)), nil
	case 4:
		return uint64(m.Mem.Read32(pa)), nil
	default:
		return m.Mem.Read64(pa), nil
	}
}

func (m *Machine) storeRaw(vaddr uint64, width int, v uint64) error {
	pa, err := m.AS.Translate(vaddr, vm.PermWrite)
	if err != nil {
		return err
	}
	switch width {
	case 1:
		m.Mem.SetByte(pa, byte(v))
	case 2:
		m.Mem.Write16(pa, uint16(v))
	case 4:
		m.Mem.Write32(pa, uint32(v))
	default:
		m.Mem.Write64(pa, v)
	}
	return nil
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.Halted {
		return ErrHalted
	}
	in := m.Prog.InstAt(m.PC)
	if in == nil {
		return fmt.Errorf("emu: PC 0x%x outside text segment", m.PC)
	}
	next := m.PC + isa.InstBytes

	switch in.Class() {
	case isa.ClassNop:
		// nothing
	case isa.ClassHalt:
		m.Halted = true
		m.InstCount++
		return nil
	case isa.ClassLoad:
		addr, newBase, upd := isa.EffAddr(in, m.Regs[in.Rs], m.Regs[in.Rt])
		if m.OnMemRef != nil {
			m.OnMemRef(addr, false)
		}
		raw, err := m.loadRaw(addr, in.MemBytes())
		if err != nil {
			return fmt.Errorf("emu: %s at pc 0x%x: %w", in, m.PC, err)
		}
		m.setReg(in.Rd, isa.LoadExtend(in.Op, raw))
		if upd {
			m.setReg(in.Rs, newBase)
		}
		m.LoadCount++
	case isa.ClassStore:
		addr, newBase, upd := isa.EffAddr(in, m.Regs[in.Rs], m.Regs[in.Rt])
		if m.OnMemRef != nil {
			m.OnMemRef(addr, true)
		}
		if err := m.storeRaw(addr, in.MemBytes(), m.Regs[in.Rd]); err != nil {
			return fmt.Errorf("emu: %s at pc 0x%x: %w", in, m.PC, err)
		}
		if upd {
			m.setReg(in.Rs, newBase)
		}
		m.StoreCount++
	case isa.ClassBranch:
		m.BranchCount++
		if isa.BranchTaken(in, m.Regs[in.Rs], m.Regs[in.Rt]) {
			next = in.Target
			m.TakenCount++
		}
	case isa.ClassJump:
		m.BranchCount++
		m.TakenCount++
		switch in.Op {
		case isa.J:
			next = in.Target
		case isa.Jal:
			m.setReg(isa.RA, m.PC+isa.InstBytes)
			next = in.Target
		case isa.Jr:
			next = m.Regs[in.Rs]
		case isa.Jalr:
			m.setReg(in.Rd, m.PC+isa.InstBytes)
			next = m.Regs[in.Rs]
		}
	default:
		m.setReg(in.Rd, isa.ALUEval(in, m.Regs[in.Rs], m.Regs[in.Rt], m.PC))
	}

	m.PC = next
	m.InstCount++
	return nil
}

func (m *Machine) setReg(r isa.Reg, v uint64) {
	if r == isa.Zero {
		return
	}
	m.Regs[r] = v
}

// Run executes until Halt or maxInsts instructions (0 = unlimited).
// It returns nil on a clean halt.
func (m *Machine) Run(maxInsts uint64) error {
	for !m.Halted {
		if maxInsts > 0 && m.InstCount >= maxInsts {
			return fmt.Errorf("emu: instruction budget %d exhausted at pc 0x%x", maxInsts, m.PC)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// ReadVirt reads len(buf) bytes of virtual memory (for test assertions
// on program results).
func (m *Machine) ReadVirt(vaddr uint64, buf []byte) error {
	ps := m.AS.PageSize()
	for len(buf) > 0 {
		pa, err := m.AS.Translate(vaddr, vm.PermRead)
		if err != nil {
			return err
		}
		n := ps - m.AS.PageOffset(vaddr)
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		m.Mem.Read(pa, buf[:n])
		buf = buf[n:]
		vaddr += n
	}
	return nil
}
