package cache

import (
	"fmt"
	"math/bits"
)

// MSHR is a miss-status holding register file: it tracks outstanding line
// fills and merges secondary misses to the same line into the primary
// miss, bounding each requester's memory-level parallelism by its entry
// count. Waiters are opaque tokens owned by the caller (the sim package
// uses instruction-window slot ids).
//
// The file is a fixed set of slots sized at construction. A small
// open-addressed table (linear probing, at most half full) maps a line to
// its slot, and each slot keeps its waiter storage across misses: a few
// waiters fit inline, and a slot that outgrows them keeps its larger list,
// so once every slot has reached its high-water mark the file allocates
// nothing.
type MSHR struct {
	table []mshrBucket // open-addressed line -> slot index; len a power of two
	shift uint         // 64 - log2(len(table)): Fibonacci-hash shift
	slots []mshrSlot
	free  []int32 // stack of unused slot indices
}

// mshrBucket is one table entry; slot 0 marks an empty bucket, so stored
// slot numbers are index+1.
type mshrBucket struct {
	line uint64
	slot int32
}

// mshrSlot is one outstanding miss. waiters starts on the inline array
// and only moves to the heap when more misses merge than it holds.
type mshrSlot struct {
	dirty   bool // a merged write wants the line dirty on fill
	waiters []uint64
	inline  [4]uint64
}

// MSHRResult is the outcome of MSHR.Add.
type MSHRResult uint8

const (
	// MSHRFull: the line has no entry and every slot is in use; nothing
	// was recorded.
	MSHRFull MSHRResult = iota
	// MSHRMerged: a secondary miss joined the line's outstanding entry.
	MSHRMerged
	// MSHRAllocated: a primary miss took a free slot; the caller must
	// issue the fill.
	MSHRAllocated
)

// NewMSHR returns an MSHR file with the given number of entries.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR needs positive capacity")
	}
	logSize := bits.Len(uint(2*capacity - 1)) // table at least twice the slots
	m := &MSHR{
		table: make([]mshrBucket, 1<<logSize),
		shift: uint(64 - logSize),
		slots: make([]mshrSlot, capacity),
		free:  make([]int32, capacity),
	}
	for i := range m.free {
		m.free[i] = int32(capacity - 1 - i) // pop order 0, 1, 2, ...
		m.slots[i].waiters = m.slots[i].inline[:0]
	}
	return m
}

// home returns line's preferred bucket.
func (m *MSHR) home(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> m.shift
}

// find returns the bucket holding line, or the empty bucket where it would
// be inserted, and whether it was found.
func (m *MSHR) find(line uint64) (uint64, bool) {
	mask := uint64(len(m.table) - 1)
	for i := m.home(line); ; i = (i + 1) & mask {
		b := &m.table[i]
		if b.slot == 0 {
			return i, false
		}
		if b.line == line {
			return i, true
		}
	}
}

// Outstanding returns the number of in-flight primary misses.
func (m *MSHR) Outstanding() int { return len(m.slots) - len(m.free) }

// Add records a miss to lineAddr with one probe: it merges into the
// line's outstanding entry if there is one, else allocates a slot for a
// primary miss, else reports the file full. dirty marks the line dirty on
// fill (a write miss).
func (m *MSHR) Add(lineAddr, waiter uint64, dirty bool) MSHRResult {
	i, ok := m.find(lineAddr)
	if ok {
		s := &m.slots[m.table[i].slot-1]
		s.waiters = append(s.waiters, waiter)
		s.dirty = s.dirty || dirty
		return MSHRMerged
	}
	if len(m.free) == 0 {
		return MSHRFull
	}
	idx := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.table[i] = mshrBucket{line: lineAddr, slot: idx + 1}
	s := &m.slots[idx]
	s.waiters = append(s.waiters[:0], waiter)
	s.dirty = dirty
	if debugChecks {
		m.checkOccupancy()
	}
	return MSHRAllocated
}

// Complete removes the entry for a filled line and returns its waiters and
// dirty flag; ok is false (and nothing changes) when the line had no
// entry. The returned slice aliases the freed slot's storage: it is valid
// until the next Add.
func (m *MSHR) Complete(lineAddr uint64) (waiters []uint64, dirty, ok bool) {
	i, found := m.find(lineAddr)
	if !found {
		return nil, false, false
	}
	idx := m.table[i].slot - 1
	m.free = append(m.free, idx)
	m.remove(i)
	if debugChecks {
		m.checkOccupancy()
	}
	s := &m.slots[idx]
	return s.waiters, s.dirty, true
}

// remove empties bucket i, shifting later buckets of the same probe run
// back so every remaining line stays reachable from its home bucket
// (backward-shift deletion; no tombstones).
func (m *MSHR) remove(i uint64) {
	mask := uint64(len(m.table) - 1)
	for j := (i + 1) & mask; m.table[j].slot != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-m.home(m.table[j].line))&mask >= (j-i)&mask {
			m.table[i] = m.table[j]
			i = j
		}
	}
	m.table[i] = mshrBucket{}
}

// checkOccupancy panics unless the table holds exactly one bucket per
// slot in use (-tags asmdebug only).
func (m *MSHR) checkOccupancy() {
	n := 0
	for _, b := range m.table {
		if b.slot != 0 {
			n++
		}
	}
	if n != m.Outstanding() {
		panic(fmt.Sprintf("cache: MSHR table holds %d lines, %d slots in use", n, m.Outstanding()))
	}
}
