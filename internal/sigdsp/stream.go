package sigdsp

import "math"

// Streaming versions of the front-end operators, matching how the node
// actually consumes its ADC: bounded memory, O(1) amortized work per sample,
// and an explicitly reported group delay so downstream stages can align
// their sample indices with the batch implementations.
//
// Every streaming operator works on blocks: a call consumes a slice of
// samples and runs one loop over it with the operator's state held in
// locals, so a chain of operators runs stage-major (each stage over the
// whole block before the next starts). A one-sample block is the per-sample
// form of the same kernel; there is no separate per-sample path.
//
// The batch functions in this package are the reference; every streaming
// operator is tested to produce bit-identical output against its batch
// counterpart, whatever the block boundaries.

// Sample is the element type the streaming morphology kernels run on:
// int32 ADC counts on the serving path, float64 millivolts elsewhere. The
// kernels only compare and copy samples, so both instantiations select the
// same input sample for the same signal.
type Sample interface{ ~int32 | ~float64 }

// BlockSize is the most samples one stage-major pass of the streaming front
// end handles. Longer chunks are cut into blocks of this size, so the block
// buffers (stack arrays) and the ring slack sized by it never scale with
// the chunk.
const BlockSize = 256

// StreamExtremum is a running windowed min or max over the last `length`
// samples, by the van Herk/Gil-Werman scheme in streaming form: O(1) work
// per sample (three compare-selects, one of them amortized) with no data-
// dependent loop, and length+1 stored samples.
//
// The stream is cut into segments of `length` samples. A trailing window
// that ends at position p of the current segment is the suffix of the
// previous segment from p+1 on plus the current segment's prefix up to p,
// so its extremum is ext(S[p+1], P): P is the running extremum of the
// current segment, S[i] the extremum of the previous segment's samples
// from i to its end, computed in one backward pass when that segment
// completes. One array serves both: seg[p] takes the current sample once
// S[p] has been read for the last time, and seg[length] holds the neutral
// element (the type's lowest value for a max, highest for a min), so the
// window that is exactly the current segment, and every window of the
// first segment (the shrunken window of the stream's first samples), is P.
//
// Ties go to the newest sample, as in the batch operators: every
// compare-select keeps the newer operand unless the older one is strictly
// more extreme, and that rule is associative, so the combined extremum is
// the newest of the window's extreme samples (-0 and +0 included). Block
// never allocates — the property the whole pipeline's zero-allocation hot
// path rests on.
type StreamExtremum[T Sample] struct {
	length  int
	wantMax bool
	seg     []T // len length+1; see above
	p       int // position in the current segment
	ext     T   // P: extremum of the current segment so far
	neutral T
	n       int // samples consumed
}

// NewStreamMax returns a running maximum over `length` samples.
func NewStreamMax[T Sample](length int) *StreamExtremum[T] {
	s := newStreamExtremum[T](length, true)
	return &s
}

// NewStreamMin returns a running minimum over `length` samples.
func NewStreamMin[T Sample](length int) *StreamExtremum[T] {
	s := newStreamExtremum[T](length, false)
	return &s
}

func newStreamExtremum[T Sample](length int, wantMax bool) StreamExtremum[T] {
	if length < 1 {
		length = 1
	}
	neutral := lowest[T]()
	if !wantMax {
		neutral = highest[T]()
	}
	seg := make([]T, length+1)
	for i := range seg {
		seg[i] = neutral
	}
	return StreamExtremum[T]{length: length, wantMax: wantMax, seg: seg, ext: neutral, neutral: neutral}
}

// lowest and highest return the extreme values of T: a max or min with
// them as one operand returns the other (on a tie, the other is the newer
// operand and has the same bits).
func lowest[T Sample]() T {
	var v T
	switch p := any(&v).(type) {
	case *int32:
		*p = math.MinInt32
	case *float64:
		*p = math.Inf(-1)
	}
	return v
}

func highest[T Sample]() T {
	var v T
	switch p := any(&v).(type) {
	case *int32:
		*p = math.MaxInt32
	case *float64:
		*p = math.Inf(1)
	}
	return v
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

// Block consumes src and writes, for each of its samples, the extremum of
// the trailing window ending there (shorter during warm-up) to dst, which
// must be at least as long as src and may alias it. It returns
// dst[:len(src)].
//
//rpbeat:allocfree
func (s *StreamExtremum[T]) Block(dst, src []T) []T {
	return s.run(dst, src, 0)
}

// run is Block that drops the first skip outputs (a centered operator's
// warm-up): the output for src[k] lands in dst[k-skip]. dst must be at
// least as long as src; the write index never passes the read index, so
// dst may alias src.
//
//rpbeat:allocfree
func (s *StreamExtremum[T]) run(dst, src []T, skip int) []T {
	length, p, e, neutral := s.length, s.p, s.ext, s.neutral
	seg := s.seg[:length+1]
	w := 0
	if s.wantMax {
		for k, x := range src {
			seg[p] = x
			if !(x < e) {
				e = x
			}
			o := seg[p+1] // S[p+1], older than every sample in P
			if !(e < o) {
				o = e
			}
			dst[w] = o
			if k >= skip {
				w++
			}
			if p++; p == length {
				// Segment complete: turn it into its suffix extrema.
				r := seg[length-1]
				for i := length - 2; i >= 0; i-- {
					if v := seg[i]; v > r {
						r = v
					} else {
						seg[i] = r
					}
				}
				p, e = 0, neutral
			}
		}
	} else {
		for k, x := range src {
			seg[p] = x
			if !(x > e) {
				e = x
			}
			o := seg[p+1]
			if !(e > o) {
				o = e
			}
			dst[w] = o
			if k >= skip {
				w++
			}
			if p++; p == length {
				r := seg[length-1]
				for i := length - 2; i >= 0; i-- {
					if v := seg[i]; v < r {
						r = v
					} else {
						seg[i] = r
					}
				}
				p, e = 0, neutral
			}
		}
	}
	s.p, s.ext = p, e
	s.n += len(src)
	return dst[:w]
}

// StreamMorph runs a centered erosion or dilation as a stream: output sample
// i (in input coordinates) becomes available after Delay() further input
// samples have arrived. Its outputs equal Erode/Dilate bit for bit from
// sample 0 on: over the first samples the trailing window covers exactly
// the batch operator's shrunken border window.
//
// A width-3 element, the noise-suppression element, needs no segments: the
// output for the window (a, b, c) is ext(ext(a, b), c), so a two-sample
// carry — the last input and the extremum of the last two — does with two
// compare-selects per sample. Replicating the first sample as its own left
// neighbour gives the shrunken border window.
type StreamMorph[T Sample] struct {
	ex    StreamExtremum[T] // length != 3; ex.n counts samples for both forms
	right int               // trailing window must extend this far past the center
	three bool              // width-3 carry instead of segments
	last  T                 // width 3: the previous input
	pair  T                 // width 3: extremum of the previous two inputs
}

// NewStreamErode returns a streaming erosion with a flat element of the
// given length, aligned with Erode.
func NewStreamErode[T Sample](length int) *StreamMorph[T] {
	m := newStreamMorph[T](length, false)
	return &m
}

// NewStreamDilate returns a streaming dilation aligned with Dilate.
func NewStreamDilate[T Sample](length int) *StreamMorph[T] {
	m := newStreamMorph[T](length, true)
	return &m
}

// newStreamMorph returns a dilation (wantMax) or erosion by value, for
// stage arrays that hold their stages inline.
func newStreamMorph[T Sample](length int, wantMax bool) StreamMorph[T] {
	if length < 1 {
		length = 1
	}
	m := StreamMorph[T]{right: length - 1 - length/2}
	if length == 3 {
		m.three = true
		m.ex = StreamExtremum[T]{length: length, wantMax: wantMax}
	} else {
		m.ex = newStreamExtremum[T](length, wantMax)
	}
	return m
}

// Delay returns how many input samples arrive before output sample 0.
func (m *StreamMorph[T]) Delay() int { return m.right }

// Block consumes src and writes every output sample it completes to dst,
// in order, returning them as dst[:k]. dst must be at least as long as src
// and may alias it, so a chain of stages runs in place over one buffer.
// The first Delay() samples of a stream complete no output.
//
//rpbeat:allocfree
func (m *StreamMorph[T]) Block(dst, src []T) []T {
	if m.three {
		return m.block3(dst, src)
	}
	skip := min(len(src), max(0, m.right-m.ex.n))
	return m.ex.run(dst, src, skip)
}

// block3 is Block for the width-3 element. The compares are written out as
// `<`/`>` so that int32 compiles to conditional moves and float64 keeps the
// newest-wins rule for equal values (including -0 == +0).
//
//rpbeat:allocfree
func (m *StreamMorph[T]) block3(dst, src []T) []T {
	if len(src) == 0 {
		return dst[:0]
	}
	last, pair := m.last, m.pair
	if m.ex.n == 0 {
		// The first sample stands in for its missing left neighbour.
		last, pair = src[0], src[0]
		src = src[1:]
	}
	if m.ex.wantMax {
		for k, x := range src {
			o := pair
			if !(x < o) {
				o = x
			}
			p := last
			if !(x < p) {
				p = x
			}
			dst[k] = o
			pair, last = p, x
		}
	} else {
		for k, x := range src {
			o := pair
			if !(x > o) {
				o = x
			}
			p := last
			if !(x > p) {
				p = x
			}
			dst[k] = o
			pair, last = p, x
		}
	}
	m.last, m.pair = last, pair
	if m.ex.n == 0 {
		m.ex.n = 1
	}
	m.ex.n += len(src)
	return dst[:len(src)]
}
