package sim

import (
	"math/rand"
	"testing"
)

// TestLineSetMatchesMap drives random add/remove/has/clear traffic (dense
// line ranges, so probe runs collide and wrap) through a lineSet and a Go
// map and requires identical answers throughout.
func TestLineSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s lineSet
	ref := map[uint64]bool{}
	for step := 0; step < 200_000; step++ {
		line := uint64(rng.Intn(3000))
		switch op := rng.Intn(100); {
		case op < 45:
			s.add(line)
			ref[line] = true
		case op < 90:
			if got, want := s.remove(line), ref[line]; got != want {
				t.Fatalf("step %d: remove(%d) = %v, want %v", step, line, got, want)
			}
			delete(ref, line)
		case op < 99:
			if got, want := s.has(line), ref[line]; got != want {
				t.Fatalf("step %d: has(%d) = %v, want %v", step, line, got, want)
			}
		default:
			s.clear()
			clear(ref)
		}
		if s.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, s.len(), len(ref))
		}
	}
	for line := uint64(0); line < 3000; line++ {
		if s.has(line) != ref[line] {
			t.Fatalf("final has(%d) = %v, want %v", line, s.has(line), ref[line])
		}
	}
}

func TestLineSetChurnAllocationFree(t *testing.T) {
	var s lineSet
	churn := func() {
		for l := uint64(0); l < 40; l++ {
			s.add(l * 977)
		}
		for l := uint64(0); l < 40; l++ {
			s.remove(l * 977)
		}
	}
	churn()
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Fatalf("insert/delete churn below the high-water mark allocated %v objects", n)
	}
}
