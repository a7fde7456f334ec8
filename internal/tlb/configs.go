package tlb

import (
	"fmt"
	"slices"

	"hbat/internal/vm"
)

// Spec describes one analyzed design from Table 2 of the paper.
type Spec struct {
	Mnemonic    string
	Description string
	Build       func(as *vm.AddressSpace, seed uint64) Device
}

// table2 is Table 2 in the paper's figure order. Every base structure
// holds 128 random-replaced entries; interleaved banks split them
// evenly, and every shield has 4 ports.
var table2 = []Spec{
	bankedRow("T4", 1, 4, 0, BitSelect, "4-ported TLB, 128 entries, fully-associative, random replacement"),
	bankedRow("T2", 1, 2, 0, BitSelect, "2-ported TLB, 128 entries, fully-associative, random replacement"),
	bankedRow("T1", 1, 1, 0, BitSelect, "1-ported TLB, 128 entries, fully-associative, random replacement"),
	multilevelRow("M16", 16, "4-ported 16-entry L1 TLB w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement"),
	multilevelRow("M8", 8, "4-ported 8-entry L1 TLB w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement"),
	multilevelRow("M4", 4, "4-ported 4-entry L1 TLB w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement"),
	{"P8", "4-ported 8-entry pretranslation cache w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement", func(as *vm.AddressSpace, seed uint64) Device { return NewPretranslation("P8", as, 8, 4, 128, seed) }},
	bankedRow("I8", 8, 1, 0, BitSelect, "8-way bit-select interleaved TLB, 128 entries (16-entry fully-associative banks), random replacement in bank"),
	bankedRow("I4", 4, 1, 0, BitSelect, "4-way bit-select interleaved TLB, 128 entries (32-entry fully-associative banks), random replacement in bank"),
	bankedRow("X4", 4, 1, 0, XORSelect, "4-way XOR-select interleaved TLB, 128 entries (32-entry fully-associative banks), random replacement in bank"),
	bankedRow("PB2", 1, 2, 2, BitSelect, "2-ported TLB w/ 2 piggyback ports, 128 entries, fully-associative, random replacement"),
	bankedRow("PB1", 1, 1, 3, BitSelect, "1-ported TLB w/ 3 piggyback ports, 128 entries, fully-associative, random replacement"),
	bankedRow("I4/PB", 4, 1, 3, BitSelect, "4-way bit-select interleaved TLB w/piggybacked banks, 128 entries (32 entries/bank), random replacement in bank"),
}

// bankedRow is a Banked design: banks banks, each with ports real and
// piggy piggyback ports.
func bankedRow(m string, banks, ports, piggy int, sel Select, desc string) Spec {
	return Spec{m, desc, func(as *vm.AddressSpace, seed uint64) Device {
		return NewBanked(m, as, 128, banks, ports, piggy, sel, Random, seed)
	}}
}

// multilevelRow is a Multilevel design with an l1-entry L1.
func multilevelRow(m string, l1 int, desc string) Spec {
	return Spec{m, desc, func(as *vm.AddressSpace, seed uint64) Device {
		return NewMultilevel(m, as, l1, 4, 128, seed)
	}}
}

// DesignOrder lists the Table 2 mnemonics in the paper's figure order.
var DesignOrder = func() []string {
	names := make([]string, len(table2))
	for i, s := range table2 {
		names[i] = s.Mnemonic
	}
	return names
}()

// LookupSpec returns the Table 2 spec for a mnemonic.
func LookupSpec(mnemonic string) (Spec, error) {
	if i := slices.IndexFunc(table2, func(s Spec) bool { return s.Mnemonic == mnemonic }); i >= 0 {
		return table2[i], nil
	}
	return Spec{}, fmt.Errorf("tlb: unknown design %q (known: %v)", mnemonic, slices.Sorted(slices.Values(DesignOrder)))
}

// NewFromSpec builds the named Table 2 design over as.
func NewFromSpec(mnemonic string, as *vm.AddressSpace, seed uint64) (Device, error) {
	s, err := LookupSpec(mnemonic)
	if err != nil {
		return nil, err
	}
	return s.Build(as, seed), nil
}
