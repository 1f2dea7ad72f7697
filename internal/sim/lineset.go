package sim

import "math/bits"

// lineSet is a set of line addresses: open addressing with linear probing
// and backward-shift deletion, doubled whenever it passes half full. Unlike
// a Go map it leaves no tombstones and has no per-map hash seed, so
// insert/delete churn never allocates, and it grows only at a new
// high-water mark. The zero value is an empty set; storage is allocated on
// the first add.
type lineSet struct {
	slots []uint64 // line+1 per bucket; 0 marks an empty bucket
	shift uint     // 64 - log2(len(slots)): Fibonacci-hash shift
	n     int
}

// lineSetMinSlots is a lineSet's first table size.
const lineSetMinSlots = 64

func (s *lineSet) home(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> s.shift
}

// find returns the bucket holding line, or the empty bucket ending its
// probe run, and whether line was found. The table must be non-empty.
func (s *lineSet) find(line uint64) (uint64, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(line); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			return i, false
		case line + 1:
			return i, true
		}
	}
}

func (s *lineSet) len() int { return s.n }

func (s *lineSet) has(line uint64) bool {
	if s.n == 0 {
		return false
	}
	_, ok := s.find(line)
	return ok
}

// add inserts line (a no-op when present).
func (s *lineSet) add(line uint64) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	i, ok := s.find(line)
	if !ok {
		s.slots[i] = line + 1
		s.n++
	}
}

// remove deletes line and reports whether it was present.
func (s *lineSet) remove(line uint64) bool {
	if s.n == 0 {
		return false
	}
	i, ok := s.find(line)
	if !ok {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-s.home(s.slots[j]-1))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
	s.n--
	return true
}

// clear empties the set, keeping its storage.
func (s *lineSet) clear() {
	if s.n > 0 {
		clear(s.slots)
		s.n = 0
	}
}

// grow doubles the table (or allocates the first one) and reinserts.
func (s *lineSet) grow() {
	old := s.slots
	size := 2 * len(old)
	if size < lineSetMinSlots {
		size = lineSetMinSlots
	}
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
	for _, v := range old {
		if v != 0 {
			i, _ := s.find(v - 1)
			s.slots[i] = v
			s.n++
		}
	}
}
