package cancelpoll

// Enabled reports whether the poller can ever observe a cancellation.
func (p Poller) Enabled() bool { return p.done != nil }
