package cpu

// DrainReleased empties the pool of released machines, so the next New
// builds a machine from nothing.
func DrainReleased() {
	for released.Get() != nil {
	}
}
