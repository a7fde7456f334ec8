// Package bpred implements the baseline branch predictor of Table 1: a
// GAp two-level predictor (Yeh & Patt) with an 8-bit global history
// register indexing a 4096-entry pattern history table of 2-bit
// saturating counters, plus a branch target buffer for targets of taken
// branches and indirect jumps.
package bpred

import "fmt"

// Config describes the predictor.
type Config struct {
	HistoryBits       int // global history register width
	PHTEntries        int // pattern history table size (power of two)
	BTBEntries        int // branch target buffer size (power of two)
	MispredictPenalty int64
}

// DefaultConfig is the baseline of Table 1.
func DefaultConfig() Config {
	return Config{HistoryBits: 8, PHTEntries: 4096, BTBEntries: 512, MispredictPenalty: 3}
}

// Stats counts predictor activity.
type Stats struct {
	CondLookups   uint64
	CondCorrect   uint64
	TargetLookups uint64
	TargetHits    uint64
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// Predictor is a GAp direction predictor plus a direct-mapped BTB.
// Speculative history update with commit-time repair is modeled the
// simple classical way: history updates at prediction time and is
// repaired on a detected misprediction.
type Predictor struct {
	cfg     Config
	pht     []uint8
	ghr     uint64
	ghrMask uint64
	phtMask uint64
	btb     []btbEntry
	btbMask uint64
	stats   Stats
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		pht:     make([]uint8, cfg.PHTEntries),
		ghrMask: (1 << uint(cfg.HistoryBits)) - 1,
		phtMask: uint64(cfg.PHTEntries - 1),
		btb:     make([]btbEntry, cfg.BTBEntries),
		btbMask: uint64(cfg.BTBEntries - 1),
	}
	p.Reset()
	return p
}

// Reuse returns p reset when it was built from cfg, and a new predictor
// otherwise (p may be nil).
func Reuse(p *Predictor, cfg Config) *Predictor {
	if p == nil || p.cfg != cfg {
		return New(cfg)
	}
	p.Reset()
	return p
}

// Reset returns the predictor to the state New leaves it in, keeping
// its tables, so a machine that is built again with the same
// configuration allocates none.
func (p *Predictor) Reset() {
	// Weakly taken: loops predict well immediately, matching the
	// common initialization of the era's simulators.
	for i := range p.pht {
		p.pht[i] = 2
	}
	clear(p.btb)
	p.ghr = 0
	p.stats = Stats{}
}

// index combines per-address bits with the global history: the "p"
// (per-address) part of GAp selects among PHT rows with low PC bits.
func (p *Predictor) index(pc uint64) uint64 {
	pcBits := (pc >> 2) & (p.phtMask >> uint(p.cfg.HistoryBits))
	return (pcBits<<uint(p.cfg.HistoryBits) | (p.ghr & p.ghrMask)) & p.phtMask
}

// PredictDir predicts the direction of the conditional branch at pc and
// returns the snapshot needed to repair history on a misprediction.
func (p *Predictor) PredictDir(pc uint64) (taken bool, ghrSnapshot uint64) {
	snap := p.ghr
	taken = p.pht[p.index(pc)] >= 2
	// Speculative history push.
	bit := uint64(0)
	if taken {
		bit = 1
	}
	p.ghr = ((p.ghr << 1) | bit) & p.ghrMask
	return taken, snap
}

// PredictTarget returns the BTB's target for pc (taken branches and
// indirect jumps), with ok=false on a BTB miss.
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	p.stats.TargetLookups++
	e := &p.btb[(pc>>2)&p.btbMask]
	if e.valid && e.pc == pc {
		p.stats.TargetHits++
		return e.target, true
	}
	return 0, false
}

// Resolve trains the predictor with the actual outcome of the
// conditional branch at pc. predTaken is what PredictDir returned;
// ghrSnapshot is its snapshot. It reports whether the direction
// prediction was correct and repairs the history if not.
func (p *Predictor) Resolve(pc uint64, predTaken, actualTaken bool, ghrSnapshot uint64) bool {
	p.stats.CondLookups++
	// Train the counter under the history the prediction used.
	idx := (((pc>>2)&(p.phtMask>>uint(p.cfg.HistoryBits)))<<uint(p.cfg.HistoryBits) |
		(ghrSnapshot & p.ghrMask)) & p.phtMask
	ctr := p.pht[idx]
	if actualTaken {
		if ctr < 3 {
			p.pht[idx] = ctr + 1
		}
	} else if ctr > 0 {
		p.pht[idx] = ctr - 1
	}
	correct := predTaken == actualTaken
	if correct {
		p.stats.CondCorrect++
		return true
	}
	// Repair: rebuild history as if the correct outcome was shifted in.
	bit := uint64(0)
	if actualTaken {
		bit = 1
	}
	p.ghr = ((ghrSnapshot << 1) | bit) & p.ghrMask
	return false
}

// UpdateTarget installs the target of a taken control transfer.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	p.btb[(pc>>2)&p.btbMask] = btbEntry{pc: pc, target: target, valid: true}
}

// MispredictPenalty returns the configured redirect penalty in cycles.
func (p *Predictor) MispredictPenalty() int64 { return p.cfg.MispredictPenalty }

// WarmCond trains the predictor with the actual outcome of the
// conditional branch at pc without recording statistics: the counter
// indexed under the current history is updated and the outcome is
// shifted into the history register, exactly as a correctly predicted
// branch would have done in the timed pipeline.
func (p *Predictor) WarmCond(pc uint64, taken bool) {
	idx := p.index(pc)
	ctr := p.pht[idx]
	if taken {
		if ctr < 3 {
			p.pht[idx] = ctr + 1
		}
	} else if ctr > 0 {
		p.pht[idx] = ctr - 1
	}
	bit := uint64(0)
	if taken {
		bit = 1
	}
	p.ghr = ((p.ghr << 1) | bit) & p.ghrMask
}

// BTBState is the serializable image of one BTB entry.
type BTBState struct {
	PC     uint64
	Target uint64
	Valid  bool
}

// State is the serializable image of the predictor's tables. Statistics
// are excluded: a restored predictor starts its counters at zero.
type State struct {
	PHT []uint8
	GHR uint64
	BTB []BTBState
}

// ExportState captures the predictor's tables.
func (p *Predictor) ExportState() State {
	st := State{PHT: append([]uint8(nil), p.pht...), GHR: p.ghr}
	st.BTB = make([]BTBState, len(p.btb))
	for i, e := range p.btb {
		st.BTB[i] = BTBState{PC: e.pc, Target: e.target, Valid: e.valid}
	}
	return st
}

// ImportState restores tables captured by ExportState. It fails if the
// geometry does not match this predictor's configuration.
func (p *Predictor) ImportState(st State) error {
	if len(st.PHT) != len(p.pht) || len(st.BTB) != len(p.btb) {
		return fmt.Errorf("bpred: state geometry pht=%d btb=%d does not match pht=%d btb=%d",
			len(st.PHT), len(st.BTB), len(p.pht), len(p.btb))
	}
	copy(p.pht, st.PHT)
	p.ghr = st.GHR & p.ghrMask
	for i, e := range st.BTB {
		p.btb[i] = btbEntry{pc: e.PC, target: e.Target, valid: e.Valid}
	}
	return nil
}
