package cache

import (
	"slices"
	"testing"
)

func TestMSHRAllocateAndComplete(t *testing.T) {
	m := NewMSHR(2)
	if got := m.Add(0x10, 1, false); got != MSHRAllocated {
		t.Fatalf("add on empty file = %v, want MSHRAllocated", got)
	}
	if m.Outstanding() != 1 {
		t.Fatal("entry not recorded")
	}
	w, dirty, ok := m.Complete(0x10)
	if !ok || dirty || !slices.Equal(w, []uint64{1}) {
		t.Fatalf("bad completion %v %v %v", w, dirty, ok)
	}
	if _, _, ok := m.Complete(0x10); ok || m.Outstanding() != 0 {
		t.Fatal("entry not removed")
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(2)
	m.Add(0x10, 1, false)
	if got := m.Add(0x10, 2, true); got != MSHRMerged {
		t.Fatalf("second add = %v, want MSHRMerged", got)
	}
	w, dirty, _ := m.Complete(0x10)
	if !slices.Equal(w, []uint64{1, 2}) || !dirty {
		t.Fatalf("merge lost state: %v dirty=%v", w, dirty)
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(2)
	m.Add(1, 0, false)
	m.Add(2, 0, false)
	if got := m.Add(3, 0, false); got != MSHRFull {
		t.Fatalf("add beyond capacity = %v, want MSHRFull", got)
	}
	if m.Outstanding() != 2 {
		t.Fatal("a rejected add must record nothing")
	}
	m.Complete(1)
	if got := m.Add(3, 0, false); got != MSHRAllocated || m.Outstanding() != 2 {
		t.Fatalf("completion must free a slot: add = %v, outstanding %d", got, m.Outstanding())
	}
}

// TestMSHRDuplicateAllocate: a second miss to an outstanding line merges
// and never takes a second slot.
func TestMSHRDuplicateAllocate(t *testing.T) {
	m := NewMSHR(4)
	m.Add(1, 0, false)
	if got := m.Add(1, 1, false); got != MSHRMerged {
		t.Fatalf("second add for same line = %v, want MSHRMerged", got)
	}
	if m.Outstanding() != 1 {
		t.Fatalf("outstanding %d, want 1", m.Outstanding())
	}
}

func TestMSHRCompleteAbsent(t *testing.T) {
	m := NewMSHR(4)
	if w, dirty, ok := m.Complete(123); ok || dirty || w != nil {
		t.Fatal("completing absent line must report nothing")
	}
}

// TestMSHRMergeIntoFullFile: a full file still accepts secondary misses to
// its outstanding lines.
func TestMSHRMergeIntoFullFile(t *testing.T) {
	m := NewMSHR(2)
	m.Add(1, 10, false)
	m.Add(2, 20, false)
	if got := m.Add(2, 21, true); got != MSHRMerged {
		t.Fatalf("merge into full file = %v, want MSHRMerged", got)
	}
	if got := m.Add(3, 30, false); got != MSHRFull {
		t.Fatalf("new line into full file = %v, want MSHRFull", got)
	}
	w, dirty, _ := m.Complete(2)
	if !slices.Equal(w, []uint64{20, 21}) || !dirty {
		t.Fatalf("merged entry %v dirty=%v", w, dirty)
	}
}

// TestMSHRSlotReuseDropsOldWaiters: a slot's waiter storage is reused,
// but a completed entry's waiters and dirty flag never leak into the next
// miss that takes the slot.
func TestMSHRSlotReuseDropsOldWaiters(t *testing.T) {
	m := NewMSHR(1)
	m.Add(7, 1, true)
	m.Add(7, 2, false)
	m.Add(7, 3, false)
	m.Complete(7)
	m.Add(8, 9, false)
	w, dirty, ok := m.Complete(8)
	if !ok || dirty || !slices.Equal(w, []uint64{9}) {
		t.Fatalf("reused slot: waiters %v dirty=%v ok=%v, want [9] false true", w, dirty, ok)
	}
}

// TestMSHRCollidingLines drives lines that share a home bucket (and runs
// that wrap the table) through interleaved adds and completions; every
// outstanding line must stay findable after each removal.
func TestMSHRCollidingLines(t *testing.T) {
	m := NewMSHR(8)
	home := m.home(1)
	var same []uint64
	for line := uint64(2); len(same) < 6; line++ {
		if m.home(line) == home {
			same = append(same, line)
		}
	}
	last := uint64(len(m.table) - 1)
	var wrap []uint64
	for line := uint64(2); len(wrap) < 2; line++ {
		if m.home(line) == last {
			wrap = append(wrap, line)
		}
	}
	lines := append(append([]uint64{1}, same[:5]...), wrap...)
	for i, l := range lines {
		if got := m.Add(l, uint64(i), false); got != MSHRAllocated {
			t.Fatalf("add %#x = %v", l, got)
		}
	}
	live := map[uint64]uint64{}
	for i, l := range lines {
		live[l] = uint64(i)
	}
	for _, l := range []uint64{same[0], 1, wrap[0], same[3]} {
		w, _, ok := m.Complete(l)
		if !ok || len(w) == 0 || w[0] != live[l] {
			t.Fatalf("complete %#x: %v %v", l, w, ok)
		}
		delete(live, l)
		for ll, tok := range live {
			if got := m.Add(ll, 100+tok, false); got != MSHRMerged {
				t.Fatalf("after removing %#x, line %#x not found (%v)", l, ll, got)
			}
		}
	}
	if got := m.Add(same[5], 50, false); got != MSHRAllocated {
		t.Fatalf("reallocating into freed slots: %v", got)
	}
	if m.Outstanding() != len(live)+1 {
		t.Fatalf("outstanding %d, want %d", m.Outstanding(), len(live)+1)
	}
}

func TestMSHRSteadyStateAllocationFree(t *testing.T) {
	m := NewMSHR(4)
	step := func() {
		for l := uint64(0); l < 4; l++ {
			m.Add(l, l, false)
			m.Add(l, l+1, true)
		}
		for l := uint64(0); l < 4; l++ {
			m.Complete(l)
		}
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("steady-state MSHR traffic allocates %v objects per run", n)
	}
}

func TestMSHRPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewMSHR(0)
}
