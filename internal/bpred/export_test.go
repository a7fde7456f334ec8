package bpred

// DirRate returns the conditional-branch direction prediction rate.
func (s *Stats) DirRate() float64 {
	if s.CondLookups == 0 {
		return 0
	}
	return float64(s.CondCorrect) / float64(s.CondLookups)
}

// RestoreHistory force-restores the global history (squash recovery for
// wrong-path fetches beyond the mispredicted branch).
func (p *Predictor) RestoreHistory(ghr uint64) { p.ghr = ghr & p.ghrMask }
