package cpu

import (
	"strings"
	"testing"
	"testing/quick"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

func TestROBRingBasics(t *testing.T) {
	r := newROB(4)
	if r.count != 0 || r.full() {
		t.Fatal("fresh ROB state wrong")
	}
	idxs := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		idx := r.push()
		r.at(idx).seq = int64(i)
		idxs = append(idxs, idx)
	}
	if !r.full() {
		t.Fatal("ROB should be full")
	}
	if r.headEntry().seq != 0 {
		t.Fatal("head is not the oldest")
	}
	r.pop()
	if r.full() || r.headEntry().seq != 1 {
		t.Fatal("pop did not advance")
	}
	// Wrap-around.
	idx := r.push()
	r.at(idx).seq = 4
	seqs := []int64{}
	for _, i := range ringOrder(r) {
		seqs = append(seqs, r.at(i).seq)
	}
	want := []int64{1, 2, 3, 4}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("ring order %v, want %v", seqs, want)
		}
	}
	if !r.older(idx).has(idxs[1]) || r.older(idxs[1]).has(idx) {
		t.Fatal("older wrong across wrap")
	}
}

func TestROBSquashAfter(t *testing.T) {
	r := newROB(8)
	var idxs []int
	for i := 0; i < 6; i++ {
		idx := r.push()
		r.at(idx).seq = int64(i)
		idxs = append(idxs, idx)
	}
	n := r.squashAfter(idxs[2])
	if n != 3 {
		t.Fatalf("squashed %d, want 3", n)
	}
	if r.count != 3 {
		t.Fatalf("count %d, want 3", r.count)
	}
	order := ringOrder(r)
	if last := r.at(order[len(order)-1]).seq; last != 2 {
		t.Fatalf("youngest surviving seq %d, want 2", last)
	}
}

// Property: any push/pop/squash sequence keeps the ring consistent:
// count matches the number of live slots, in strictly increasing seq
// order.
func TestROBConsistencyProperty(t *testing.T) {
	check := func(ops []uint8) bool {
		r := newROB(8)
		seq := int64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if !r.full() {
					idx := r.push()
					r.at(idx).seq = seq
					r.at(idx).state = sDone
					seq++
				}
			case 1:
				if r.count != 0 {
					r.pop()
				}
			case 2:
				if r.count > 1 {
					// Squash after the head.
					r.squashAfter(r.head)
				}
			}
			// Invariants.
			n := 0
			last := int64(-1)
			okOrder := true
			for _, i := range ringOrder(r) {
				if r.at(i).seq <= last {
					okOrder = false
				}
				last = r.at(i).seq
				n++
			}
			if n != r.count || !okOrder {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestROBSizeBounds: New rejects a Config no run can use, naming the
// field: a ROB outside 1..64 (every scheduler set is one word), and a
// width, queue, unit count or prediction budget below 1, with which
// every run ends in ErrDeadlock. At the least each takes, the baseline
// runs tomcatv (integer, floating-point and memory work) to the
// emulator's end under lockstep.
func TestROBSizeBounds(t *testing.T) {
	w, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		name string
		set  func(*Config, int)
	}{
		{"ROBSize", func(c *Config, n int) { c.ROBSize = n }},
		{"FetchWidth", func(c *Config, n int) { c.FetchWidth = n }},
		{"IssueWidth", func(c *Config, n int) { c.IssueWidth = n }},
		{"CommitWidth", func(c *Config, n int) { c.CommitWidth = n }},
		{"LSQSize", func(c *Config, n int) { c.LSQSize = n }},
		{"FetchQueue", func(c *Config, n int) { c.FetchQueue = n }},
		{"IntALUs", func(c *Config, n int) { c.IntALUs = n }},
		{"LdStUnits", func(c *Config, n int) { c.LdStUnits = n }},
		{"FPAdders", func(c *Config, n int) { c.FPAdders = n }},
		{"MaxBranchesPerFetch", func(c *Config, n int) { c.MaxBranchesPerFetch = n }},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			for _, n := range []int{0, -1} {
				cfg := DefaultConfig()
				f.set(&cfg, n)
				if _, err := NewWithDesign(p, cfg, "T2"); err == nil || !strings.Contains(err.Error(), f.name) {
					t.Errorf("%s %d: error %v, want one naming %s", f.name, n, err, f.name)
				}
			}
			cfg := DefaultConfig()
			cfg.Lockstep = true
			f.set(&cfg, 1)
			m, err := NewWithDesign(p, cfg, "T2")
			if err != nil {
				t.Fatalf("%s 1: %v", f.name, err)
			}
			if err := m.Run(); err != nil || !m.Halted() {
				t.Errorf("%s 1: run %v, halted %v", f.name, err, m.Halted())
			}
		})
	}

	sum := buildSumProgram(t, 100, prog.Budget32)
	for _, size := range []int{65, 96, 17, 64} {
		cfg := DefaultConfig()
		cfg.ROBSize, cfg.Lockstep = size, true
		m, err := NewWithDesign(sum, cfg, "T2")
		if size > 64 {
			if err == nil || !strings.Contains(err.Error(), "1..64") {
				t.Errorf("ROBSize %d: error %v, want one naming 1..64", size, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ROBSize %d: %v", size, err)
		}
		if err := m.Run(); err != nil || !m.Halted() {
			t.Errorf("ROBSize %d: run %v, halted %v", size, err, m.Halted())
		}
	}

	// A fast-forward restores a checkpoint, so it needs one.
	cfg := DefaultConfig()
	cfg.FastForward = 1000
	if _, err := NewWithDesign(sum, cfg, "T2"); err == nil || !strings.Contains(err.Error(), "Checkpoint") {
		t.Errorf("FastForward without a Checkpoint: error %v, want one naming Checkpoint", err)
	}
}

func TestFetchQueueRing(t *testing.T) {
	m := &Machine{fetchQ: make([]fetchedInst, 4)}
	push := func(pc uint64) {
		m.fetchSlot().pc = pc
		m.fetchQCount++
	}
	pop := func() uint64 {
		pc := m.peekFetched().pc
		m.popFetched()
		return pc
	}
	for i := 0; i < 3; i++ {
		push(uint64(i))
	}
	if m.fetchQLen() != 3 {
		t.Fatalf("len %d", m.fetchQLen())
	}
	if pop() != 0 || pop() != 1 {
		t.Fatal("pop order wrong")
	}
	for pc := uint64(9); pc < 12; pc++ { // wraps past the end of the ring
		push(pc)
	}
	if m.fetchQLen() != 4 {
		t.Fatalf("len %d after wrap", m.fetchQLen())
	}
	for _, want := range []uint64{2, 9, 10, 11} {
		if got := pop(); got != want {
			t.Fatalf("popped pc %d across the wrap, want %d", got, want)
		}
	}
	push(5)
	m.flushFetchQ()
	if m.fetchQLen() != 0 || m.peekFetched() != nil {
		t.Fatal("flush wrong")
	}
}

// TestDeterminism: identical configurations produce identical cycle
// counts and statistics (required for reproducible experiments).
func TestDeterminism(t *testing.T) {
	p := buildSumProgram(t, 200, prog.Budget32)
	var cycles [2]int64
	var walks [2]uint64
	for i := range cycles {
		m, err := NewWithDesign(p, DefaultConfig(), "M8")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		cycles[i] = m.Stats().Cycles
		walks[i] = m.Stats().TLBWalks
	}
	if cycles[0] != cycles[1] || walks[0] != walks[1] {
		t.Fatalf("nondeterministic: %v %v", cycles, walks)
	}
}

// ringOrder lists the live slots oldest first by walking the ring.
func ringOrder(r *rob) []int {
	order := make([]int, 0, r.count)
	for i, idx := 0, r.head; i < r.count; i, idx = i+1, r.inc(idx) {
		order = append(order, idx)
	}
	return order
}
