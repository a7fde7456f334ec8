package pipetrace

// Disasm renders the event's instruction ("?" when unknown — wrong-path
// fetches beyond the text segment carry no decoded instruction).
func (e *Event) Disasm() string {
	if e.Inst == nil {
		return "?"
	}
	return e.Inst.String()
}
