package tlb

// CacheLen reports how many pretranslations are currently attached.
func (t *Pretranslation) CacheLen() int {
	n := 0
	for i := range t.cache {
		if t.cache[i].valid {
			n++
		}
	}
	return n
}

// SetOffsetTagBits restricts how many of the four offset bits in the
// request participate in the pretranslation tag. The paper uses four
// (Section 4.1: "the upper 4 bits of the offset of a load"); zero
// degenerates to one pretranslation per register, the original
// branch-address-cache organization. Returns the receiver for chaining.
func (t *Pretranslation) SetOffsetTagBits(n int) *Pretranslation {
	if n < 0 {
		n = 0
	}
	if n > 4 {
		n = 4
	}
	t.offMask = uint8(0xF >> (4 - n))
	return t
}
