package engine

// RunLog returns a copy of the engine's provenance log: the most
// recent runLogKept requests in completion order, executed and
// cache-served alike.
func (e *Engine) RunLog() []RunRecord {
	recs, _ := e.runLogSnapshot()
	return recs
}
