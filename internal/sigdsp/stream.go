package sigdsp

// Streaming (sample-by-sample) versions of the front-end operators, matching
// how the node actually consumes its ADC: bounded memory, O(1) amortized
// work per sample, and an explicitly reported group delay so downstream
// stages can align their sample indices with the batch implementations.
//
// The batch functions in this package are the reference; every streaming
// operator is tested to produce bit-identical output (modulo the documented
// warm-up region) against its batch counterpart.

// StreamExtremum is a running windowed min or max over the last `length`
// samples (Lemire's monotonic-wedge algorithm): O(1) amortized per sample
// with at most `length` stored entries. The wedge keeps each entry's value
// beside its absolute index in one power-of-two ring deque, addressed with
// a mask through monotone head/tail counters: no sample buffer, no modulo,
// and steady-state Push never allocates — the property the whole pipeline's
// zero-allocation hot path rests on (a plain slice deque would shed front
// capacity at every pop and reallocate on append).
type StreamExtremum struct {
	length  int
	wantMax bool
	ring    []wedgeEntry // deque ring, len a power of two >= length+1
	mask    int          // len(ring)-1
	head    int          // deque front, as a monotone position (ring[head&mask])
	tail    int          // one past the deque back; tail-head is the occupancy
	n       int          // samples consumed
}

// wedgeEntry is one wedge sample: its absolute index and its value.
type wedgeEntry struct {
	i int
	v float64
}

// NewStreamMax returns a running maximum over `length` samples.
func NewStreamMax(length int) *StreamExtremum {
	s := newStreamExtremum(length, true)
	return &s
}

// NewStreamMin returns a running minimum over `length` samples.
func NewStreamMin(length int) *StreamExtremum {
	s := newStreamExtremum(length, false)
	return &s
}

func newStreamExtremum(length int, wantMax bool) StreamExtremum {
	if length < 1 {
		length = 1
	}
	// The deque briefly holds length+1 entries: the new sample is appended
	// before the expired front is dropped.
	size := RingSize(length + 1)
	return StreamExtremum{
		length:  length,
		wantMax: wantMax,
		ring:    make([]wedgeEntry, size),
		mask:    size - 1,
	}
}

// RingSize returns the smallest power of two >= n: the length of a ring
// that holds n samples and is indexed by masking a monotone position with
// RingSize(n)-1. Every delay line of the streaming front end is sized so,
// which keeps the per-sample path free of modulo operations.
func RingSize(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Push consumes one sample and returns the extremum of the trailing window
// (shorter during warm-up). Ties go to the newest sample: an equal back
// entry is popped.
//
//rpbeat:allocfree
func (s *StreamExtremum) Push(x float64) float64 {
	ring, mask := s.ring, s.mask
	head, tail := s.head, s.tail
	// Pop dominated entries off the back of the wedge.
	if s.wantMax {
		for tail > head && !(x < ring[(tail-1)&mask].v) {
			tail--
		}
	} else {
		for tail > head && !(x > ring[(tail-1)&mask].v) {
			tail--
		}
	}
	ring[tail&mask] = wedgeEntry{i: s.n, v: x}
	s.tail = tail + 1
	// Expire the front once it leaves the window.
	if ring[head&mask].i <= s.n-s.length {
		head++
	}
	s.head = head
	s.n++
	return ring[head&mask].v
}

// Delay returns the number of samples by which the trailing-window output
// lags a centered batch operator of the same length: (length-1)/2... the
// exact alignment depends on the batch operator's window split; see
// StreamErode/StreamDilate which handle it.
func (s *StreamExtremum) Delay() int { return s.length / 2 }

// StreamMorph runs a centered erosion or dilation as a stream: output sample
// i (in input coordinates) becomes available after Delay() further input
// samples have arrived.
type StreamMorph struct {
	ex    StreamExtremum
	right int // trailing window must extend this far past the center
}

// NewStreamErode returns a streaming erosion with a flat element of the
// given length, aligned with Erode.
func NewStreamErode(length int) *StreamMorph {
	m := newStreamMorph(length, false)
	return &m
}

// NewStreamDilate returns a streaming dilation aligned with Dilate.
func NewStreamDilate(length int) *StreamMorph {
	m := newStreamMorph(length, true)
	return &m
}

// newStreamMorph returns a dilation (wantMax) or erosion by value, for
// stage arrays that hold their stages inline.
func newStreamMorph(length int, wantMax bool) StreamMorph {
	if length < 1 {
		length = 1
	}
	return StreamMorph{ex: newStreamExtremum(length, wantMax), right: length - 1 - length/2}
}

// Delay returns how many input samples arrive before output sample 0.
func (m *StreamMorph) Delay() int { return m.right }

// Push consumes one sample. It returns the next output sample and true once
// the pipeline has filled (after Delay() samples), or 0 and false before.
// Note the border semantics differ from the batch operator only in the first
// Delay() outputs (the batch version shrinks its window at the left border;
// the stream has no access to "future" samples and therefore emits the
// trailing-window result there).
//
//rpbeat:allocfree
func (m *StreamMorph) Push(x float64) (float64, bool) {
	v := m.ex.Push(x)
	if m.ex.n <= m.right {
		return 0, false
	}
	return v, true
}
