package cpu

import "hbat/internal/stats"

// DrainReleased empties the pool of released machines, so the next New
// builds a machine from nothing.
func DrainReleased() {
	for released.Get() != nil {
	}
}

// Registry returns the machine's metrics registry.
func (m *Machine) Registry() *stats.Registry { return m.metrics.reg }
