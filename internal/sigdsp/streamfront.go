package sigdsp

// Streaming versions of the two remaining batch front-end operators: the
// complete ECG filter (noise suppression + baseline removal, the software
// equivalent of FilterECG) and the à trous dyadic wavelet transform that
// feeds R-peak detection. Together with StreamMorph these make the entire
// sub-system (1) front end runnable block by block with bounded memory —
// the substrate of internal/pipeline.
//
// Layout: every stage is held by value (the twelve morphology stages as
// three [4]StreamMorph arrays, the wavelet levels as one slice of values),
// every delay line is a power-of-two ring indexed with a mask or a linear
// buffer compacted once per block of room, and a block runs stage-major:
// each stage makes one loop over the whole block, in place, before the
// next stage starts.
//
// Bit-identity contract: every operator here reproduces its batch
// counterpart exactly — including the left signal border, where the batch
// operators shrink their windows (a trailing window over the first samples
// covers exactly the same clipped range) or replicate the edge sample
// (StreamDWT fills each level's history with its first sample) — and the
// result does not depend on where the block boundaries fall. The only
// divergence is the right border: a stream cannot see future samples, so
// the final Delay() outputs of a record are never emitted and must be
// handled by the caller's flush policy.

// StreamFilter is the streaming form of FilterECG: morphological noise
// suppression (the averaged open-close / close-open pair) followed by
// baseline-wander removal, with the suppressed-signal delay line needed to
// align the final subtraction. Output sample i is emitted after input
// sample i + Delay() arrives.
//
// The noise-suppression chains run on the input samples themselves (int32
// ADC counts on the serving path); only their two outputs are converted to
// millivolts, as (float64(v)-zero)/gain, before they are averaged. That is
// exact: every erosion or dilation output is one of its inputs, and for a
// finite gain > 0 the conversion is monotone and never yields -0, so
// converting after the chains selects the same values as running the
// chains on converted samples. Output i is therefore bit-identical to
// FilterECG over the converted samples, at index i.
type StreamFilter[T Sample] struct {
	// Noise suppression: two parallel 4-stage chains over the same input.
	// oc = Close(Open(x,k),k) = Erode,Dilate,Dilate,Erode;
	// co = Open(Close(x,k),k) = Dilate,Erode,Erode,Dilate.
	oc, co [4]StreamMorph[T]
	// zero and gain convert a chain output to millivolts.
	zero, gain float64
	// Baseline estimation over the suppressed signal:
	// Close(Open(y,openLen),closeLen) = Erode,Dilate (open) then
	// Dilate,Erode (close).
	base [4]StreamMorph[float64]
	// supRing delays the suppressed signal by the baseline-cascade delay so
	// the subtraction y - baseline is index-aligned. It also holds one
	// block of slack, because a whole block is written before its baseline
	// is subtracted; its length is a power of two, indexed with supMask.
	supRing []float64
	supMask int
	supN    int
	baseDel int
	total   int
}

// StreamECGFilter is the streaming front end over millivolt samples: the
// StreamFilter whose conversion is the identity (zero 0, gain 1, under
// which (x-0)/1 == x bit for bit, -0 included).
type StreamECGFilter = StreamFilter[float64]

// NewStreamECGFilter builds the streaming front end for cfg over millivolt
// samples.
func NewStreamECGFilter(cfg BaselineConfig) *StreamECGFilter {
	return NewStreamFilter[float64](cfg, 0, 1)
}

// NewStreamFilter builds the streaming front end for cfg over samples of
// type T, converted to millivolts as (float64(v)-zero)/gain after noise
// suppression. gain must be finite and > 0 for the noise stage to be
// exact.
func NewStreamFilter[T Sample](cfg BaselineConfig, zero, gain float64) *StreamFilter[T] {
	k := oddAtLeast(cfg.NoiseElem, 3)
	openL, closeL := cfg.openLen(), cfg.closeLen()
	f := &StreamFilter[T]{
		oc: [4]StreamMorph[T]{
			newStreamMorph[T](k, false), newStreamMorph[T](k, true),
			newStreamMorph[T](k, true), newStreamMorph[T](k, false),
		},
		co: [4]StreamMorph[T]{
			newStreamMorph[T](k, true), newStreamMorph[T](k, false),
			newStreamMorph[T](k, false), newStreamMorph[T](k, true),
		},
		zero: zero,
		gain: gain,
		base: [4]StreamMorph[float64]{
			newStreamMorph[float64](openL, false), newStreamMorph[float64](openL, true),
			newStreamMorph[float64](closeL, true), newStreamMorph[float64](closeL, false),
		},
	}
	for i := range f.base {
		f.baseDel += f.base[i].Delay()
	}
	noiseDel := 0
	for i := range f.oc {
		noiseDel += f.oc[i].Delay()
	}
	f.total = noiseDel + f.baseDel
	f.supRing = make([]float64, RingSize(f.baseDel+BlockSize))
	f.supMask = len(f.supRing) - 1
	return f
}

// Delay returns the filter's group delay: output sample i becomes available
// once input sample i+Delay() has been consumed.
func (f *StreamFilter[T]) Delay() int { return f.total }

// Push consumes one sample and, once the cascade is primed, emits one
// filtered sample (aligned to input index n - Delay()). It is a one-sample
// block.
//
//rpbeat:allocfree
func (f *StreamFilter[T]) Push(x T) (float64, bool) {
	a, b := [1]T{x}, [1]T{x}
	var y [1]float64
	if out := f.run(y[:], a[:], b[:]); len(out) == 1 {
		return out[0], true
	}
	return 0, false
}

// Block consumes src and writes every filtered sample it completes to dst,
// in order, returning them as dst[:k]; dst must be at least as long as src.
// The result is the same for any split of a stream into blocks.
//
//rpbeat:allocfree
func (f *StreamFilter[T]) Block(dst []float64, src []T) []float64 {
	var a, b [BlockSize]T
	k := 0
	for len(src) > 0 {
		m := copy(a[:], src)
		copy(b[:], src[:m])
		k += len(f.run(dst[k:], a[:m], b[:m]))
		src = src[m:]
	}
	return dst[:k]
}

// run filters one block of at most BlockSize samples, which the caller has
// copied into both a and b: the noise chains run in place over them, the
// baseline cascade in place over dst.
//
//rpbeat:allocfree
func (f *StreamFilter[T]) run(dst []float64, a, b []T) []float64 {
	for i := range f.oc {
		a = f.oc[i].Block(a, a)
	}
	for i := range f.co {
		b = f.co[i].Block(b, b)
	}
	// The chains share stage lengths, so len(a) == len(b).
	zero, gain := f.zero, f.gain
	ring, mask, n := f.supRing, f.supMask, f.supN
	y := dst[:len(a)]
	for i := range y {
		s := 0.5 * ((float64(a[i])-zero)/gain + (float64(b[i])-zero)/gain)
		y[i] = s
		ring[(n+i)&mask] = s
	}
	n += len(y)
	f.supN = n
	for i := range f.base {
		y = f.base[i].Block(y, y)
	}
	// y[k] is the baseline of suppressed sample t+k.
	t := n - f.baseDel - len(y)
	for k := range y {
		y[k] = ring[(t+k)&mask] - y[k]
	}
	return y
}

// streamDWTLevel computes one à trous level as a stream: given the level's
// approximation signal a, it emits the recentered detail sample w[i] and
// the next-level approximation sample, reproducing AtrousDWT exactly (the
// left border replicates a[0]; the right border is never reached by a
// stream).
type streamDWTLevel struct {
	gap, half int
	// ext[base:] is the level's input: hist = 3*gap samples of history
	// (before the stream starts, copies of its first sample) followed by
	// the current block. The taps of the output a block input completes
	// reach back exactly hist samples, so they are plain offsets into it.
	// base advances by each block and returns to 0, with the history
	// copied along, only when less than a block of room is left: once per
	// full block, once per levelSlack one-sample blocks.
	ext  []float64
	base int
	hist int
	n    int // input samples consumed
	// det[from:end] holds the detail samples this level has produced but
	// StreamDWT has not yet emitted, because the deeper (slower) levels
	// have not caught up: at most the deeper levels' total delay, plus one
	// block. It is compacted the same way as ext.
	det       []float64
	from, end int
}

// levelSlack is the room a level's buffers keep beyond one block, so that
// small blocks move them to the front only every levelSlack samples.
const levelSlack = 64

// newStreamDWTLevel builds level `level`; lag is the total delay of the
// deeper levels, which bounds how far this level's output runs ahead of
// the aligned output.
func newStreamDWTLevel(level, lag int) streamDWTLevel {
	gap := 1 << level
	return streamDWTLevel{
		gap: gap, half: gap / 2, hist: 3 * gap,
		ext: make([]float64, 3*gap+BlockSize+levelSlack),
		det: make([]float64, lag+BlockSize+levelSlack),
	}
}

// delay returns how many extra inputs must arrive before output i exists.
func (l *streamDWTLevel) delay() int { return l.half + 2*l.gap }

// input drops the k detail samples emitted last, makes room for one more
// block, and returns where that block's input goes.
//
//rpbeat:allocfree
func (l *streamDWTLevel) input(k int) []float64 {
	l.from += k
	if l.end+BlockSize > len(l.det) {
		l.end = copy(l.det, l.det[l.from:l.end])
		l.from = 0
	}
	if l.base+l.hist+BlockSize > len(l.ext) {
		copy(l.ext, l.ext[l.base:l.base+l.hist])
		l.base = 0
	}
	return l.ext[l.base+l.hist:]
}

// block runs the level over the m inputs its input slice received: the
// detail samples are appended to det and, unless next is nil, the next
// level's approximation samples written to next. It returns how many
// outputs the block completed.
//
// Block input k is sample n+k; it completes output n+k-delay(), whose taps
// are centered at c = n+k-2*gap: c-gap, c, c+gap and c+2*gap (the input
// itself), which are ext[k], ext[k+gap], ext[k+2*gap] and ext[k+3*gap]
// from base on. Only the first can fall left of the signal, into the
// replicated history.
//
//rpbeat:allocfree
func (l *streamDWTLevel) block(m int, next []float64) int {
	if m == 0 {
		return 0
	}
	gap, hist := l.gap, l.hist
	ext := l.ext[l.base : l.base+hist+m]
	if l.n == 0 {
		for i := range ext[:hist] {
			ext[i] = ext[hist]
		}
	}
	start := max(0, l.half+2*gap-l.n) // the first input that completes an output
	det := l.det[l.end:]
	w := 0
	// Same expressions as AtrousDWT (recentered by half up front); the
	// float64 conversions round each product, so no platform fuses them.
	// Scaling by 0.125 rounds the same real number x/8 does, so it is the
	// division's result bit for bit, without its latency.
	if next == nil {
		for k := start; k < m; k++ {
			det[w] = 2 * (ext[k+2*gap] - ext[k+gap])
			w++
		}
	} else {
		for k := start; k < m; k++ {
			am, a0, ap, app := ext[k], ext[k+gap], ext[k+2*gap], ext[k+3*gap]
			det[w] = 2 * (ap - a0)
			next[w] = (am + float64(3*a0) + float64(3*ap) + app) * 0.125
			w++
		}
	}
	l.end += w
	l.n += m
	l.base += m
	return w
}

// StreamDWT is the streaming à trous transform: after Delay() samples of
// warm-up, each input sample completes detail index i of every level,
// bit-identical to AtrousDWT(x, levels').W[j][i] for any levels' >= levels
// (deeper levels do not affect shallower ones).
type StreamDWT struct {
	levels []streamDWTLevel
	k      int // detail samples per level the last Block completed
}

// NewStreamDWT builds a streaming transform with the given number of detail
// levels (>= 1).
func NewStreamDWT(levels int) *StreamDWT {
	if levels < 1 {
		levels = 1
	}
	d := &StreamDWT{levels: make([]streamDWTLevel, levels)}
	lag := 0
	for j := levels - 1; j >= 0; j-- {
		d.levels[j] = newStreamDWTLevel(j, lag)
		lag += d.levels[j].delay()
	}
	return d
}

// Delay returns the total warm-up: detail index i for every level is
// available once input sample i+Delay() has been consumed.
func (d *StreamDWT) Delay() int {
	total := 0
	for j := range d.levels {
		total += d.levels[j].delay()
	}
	return total
}

// Block consumes x, at most BlockSize samples, running the levels
// stage-major, and returns k, the number of detail indices it completed:
// Detail(j) then holds level j's k samples.
//
//rpbeat:allocfree
func (d *StreamDWT) Block(x []float64) int {
	if len(x) > BlockSize {
		panic("sigdsp: StreamDWT.Block longer than BlockSize")
	}
	levels := d.levels
	m := copy(levels[0].input(d.k), x)
	for j := range levels {
		var next []float64
		if j+1 < len(levels) {
			next = levels[j+1].input(d.k)
		}
		m = levels[j].block(m, next)
	}
	// Each level consumes the previous one's output, so the deepest level
	// is the last to produce sample i: once it has, every level has.
	last := &levels[len(levels)-1]
	d.k = last.end - last.from
	return d.k
}

// Detail returns level j's detail samples completed by the last Block, in
// order. The slice is reused by the next Block; copy it to retain.
//
//rpbeat:allocfree
func (d *StreamDWT) Detail(j int) []float64 {
	l := &d.levels[j]
	return l.det[l.from : l.from+d.k]
}
