package tlb

import (
	"fmt"
	"sort"

	"hbat/internal/vm"
)

// Spec describes one analyzed design from Table 2 of the paper.
type Spec struct {
	Mnemonic    string
	Description string
	Build       func(as *vm.AddressSpace, seed uint64) Device
}

// The thirteen analyzed configurations of Table 2. Every base structure
// holds 128 entries; interleaved banks split those entries evenly. The
// banked designs read NewBanked(name, as, entries, banks, ports per
// bank, piggyback ports per bank, bank select, replacement, seed).
var specs = map[string]Spec{
	"T4": {
		Mnemonic:    "T4",
		Description: "4-ported TLB, 128 entries, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("T4", as, 128, 1, 4, 0, BitSelect(1), Random, seed)
		},
	},
	"T2": {
		Mnemonic:    "T2",
		Description: "2-ported TLB, 128 entries, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("T2", as, 128, 1, 2, 0, BitSelect(1), Random, seed)
		},
	},
	"T1": {
		Mnemonic:    "T1",
		Description: "1-ported TLB, 128 entries, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("T1", as, 128, 1, 1, 0, BitSelect(1), Random, seed)
		},
	},
	"I8": {
		Mnemonic:    "I8",
		Description: "8-way bit-select interleaved TLB, 128 entries (16-entry fully-associative banks), random replacement in bank",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("I8", as, 128, 8, 1, 0, BitSelect(8), Random, seed)
		},
	},
	"I4": {
		Mnemonic:    "I4",
		Description: "4-way bit-select interleaved TLB, 128 entries (32-entry fully-associative banks), random replacement in bank",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("I4", as, 128, 4, 1, 0, BitSelect(4), Random, seed)
		},
	},
	"X4": {
		Mnemonic:    "X4",
		Description: "4-way XOR-select interleaved TLB, 128 entries (32-entry fully-associative banks), random replacement in bank",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("X4", as, 128, 4, 1, 0, XORSelect(4), Random, seed)
		},
	},
	"M16": {
		Mnemonic:    "M16",
		Description: "4-ported 16-entry L1 TLB w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewMultilevel("M16", as, 16, 4, 128, seed)
		},
	},
	"M8": {
		Mnemonic:    "M8",
		Description: "4-ported 8-entry L1 TLB w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewMultilevel("M8", as, 8, 4, 128, seed)
		},
	},
	"M4": {
		Mnemonic:    "M4",
		Description: "4-ported 4-entry L1 TLB w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewMultilevel("M4", as, 4, 4, 128, seed)
		},
	},
	"P8": {
		Mnemonic:    "P8",
		Description: "4-ported 8-entry pretranslation cache w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewPretranslation("P8", as, 8, 4, 128, seed)
		},
	},
	"PB2": {
		Mnemonic:    "PB2",
		Description: "2-ported TLB w/ 2 piggyback ports, 128 entries, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("PB2", as, 128, 1, 2, 2, BitSelect(1), Random, seed)
		},
	},
	"PB1": {
		Mnemonic:    "PB1",
		Description: "1-ported TLB w/ 3 piggyback ports, 128 entries, fully-associative, random replacement",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("PB1", as, 128, 1, 1, 3, BitSelect(1), Random, seed)
		},
	},
	"I4/PB": {
		Mnemonic:    "I4/PB",
		Description: "4-way bit-select interleaved TLB w/piggybacked banks, 128 entries (32 entries/bank), random replacement in bank",
		Build: func(as *vm.AddressSpace, seed uint64) Device {
			return NewBanked("I4/PB", as, 128, 4, 1, 3, BitSelect(4), Random, seed)
		},
	},
}

// DesignOrder lists the Table 2 mnemonics in the paper's figure order.
var DesignOrder = []string{
	"T4", "T2", "T1",
	"M16", "M8", "M4", "P8",
	"I8", "I4", "X4",
	"PB2", "PB1", "I4/PB",
}

// LookupSpec returns the Table 2 spec for a mnemonic.
func LookupSpec(mnemonic string) (Spec, error) {
	s, ok := specs[mnemonic]
	if !ok {
		known := make([]string, 0, len(specs))
		for k := range specs {
			known = append(known, k)
		}
		sort.Strings(known)
		return Spec{}, fmt.Errorf("tlb: unknown design %q (known: %v)", mnemonic, known)
	}
	return s, nil
}

// NewFromSpec builds the named Table 2 design over as.
func NewFromSpec(mnemonic string, as *vm.AddressSpace, seed uint64) (Device, error) {
	s, err := LookupSpec(mnemonic)
	if err != nil {
		return nil, err
	}
	return s.Build(as, seed), nil
}
