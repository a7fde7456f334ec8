package mem

// framesHeld reports how many frames the memory holds, its own and
// shared ones: the tests' measure of what reads and writes allocated.
func (m *Memory) framesHeld() int {
	n := 0
	for _, f := range m.frames {
		if f != nil {
			n++
		}
	}
	return n
}
