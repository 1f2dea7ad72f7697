// Package prefetch implements the stride prefetcher used in the paper's
// Section 6.2 study ("a stride prefetcher of degree four and distance
// 24"). The prefetcher observes each core's demand miss stream, detects
// constant-stride sequences, and issues prefetches that fill the shared
// cache.
package prefetch

// Degree and Distance are the paper's prefetcher parameters.
const (
	DefaultDegree   = 4
	DefaultDistance = 24
)

// streamEntry tracks one detected access stream.
type streamEntry struct {
	lastLine  uint64
	stride    int64
	confirmed int
	lastPref  uint64
	valid     bool
}

// Stride is a per-core stride prefetcher. It keeps a small table of
// recently observed streams; when a stream's stride has been confirmed
// twice, each subsequent access triggers up to Degree prefetches Distance
// lines ahead.
type Stride struct {
	Degree   int
	Distance int

	table []streamEntry
	out   []uint64 // Observe's result buffer, reused across calls
}

// New returns a stride prefetcher with the paper's parameters.
func New() *Stride {
	return &Stride{Degree: DefaultDegree, Distance: DefaultDistance, table: make([]streamEntry, 16)}
}

// Observe processes one demand access (line address) and returns the line
// addresses to prefetch (possibly none). The returned slice is only valid
// until the next call.
func (s *Stride) Observe(line uint64) []uint64 {
	e := s.match(line)
	if e == nil {
		s.allocate(line)
		return nil
	}
	stride := int64(line) - int64(e.lastLine)
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		e.confirmed++
	} else {
		e.stride = stride
		e.confirmed = 1
	}
	e.lastLine = line
	if e.confirmed < 2 {
		return nil
	}
	out := s.out[:0]
	base := int64(line) + e.stride*int64(s.Distance)
	for i := 0; i < s.Degree; i++ {
		target := base + e.stride*int64(i)
		if target <= 0 {
			continue
		}
		t := uint64(target)
		if t == e.lastPref {
			continue
		}
		out = append(out, t)
	}
	if len(out) > 0 {
		e.lastPref = out[len(out)-1]
	}
	s.out = out
	return out
}

// match finds the stream whose last access is within 8 strides of line.
func (s *Stride) match(line uint64) *streamEntry {
	for i := range s.table {
		e := &s.table[i]
		if !e.valid {
			continue
		}
		d := int64(line) - int64(e.lastLine)
		if d > -256 && d < 256 {
			return e
		}
	}
	return nil
}

// allocate replaces the oldest entry with a new stream (simple FIFO via
// rotation).
func (s *Stride) allocate(line uint64) {
	copy(s.table[1:], s.table[:len(s.table)-1])
	s.table[0] = streamEntry{lastLine: line, valid: true}
}
