package sigdsp

// Streaming versions of the two remaining batch front-end operators: the
// complete ECG filter (noise suppression + baseline removal, the software
// equivalent of FilterECG) and the à trous dyadic wavelet transform that
// feeds R-peak detection. Together with StreamMorph these make the entire
// sub-system (1) front end runnable one ADC sample at a time with bounded
// memory — the substrate of internal/pipeline.
//
// Layout: every stage is held by value (the twelve morphology stages as
// three [4]StreamMorph arrays, the wavelet levels as one slice of values)
// and every delay line is a power-of-two ring indexed with a mask, so a
// Push runs no modulo and follows no per-stage pointer.
//
// Bit-identity contract: every operator here reproduces its batch
// counterpart exactly — including the left signal border, where the batch
// operators shrink their windows (a trailing window over the first samples
// covers exactly the same clipped range) or replicate the edge sample
// (StreamDWT memoizes the first sample of each level). The only divergence
// is the right border: a stream cannot see future samples, so the final
// Delay() outputs of a record are never emitted and must be handled by the
// caller's flush policy.

// StreamECGFilter is the streaming form of FilterECG: morphological noise
// suppression (the averaged open-close / close-open pair) followed by
// baseline-wander removal, with the raw-path delay line needed to align the
// final subtraction. Output sample i is emitted after input sample
// i + Delay() arrives and is bit-identical to FilterECG(x, cfg)[i].
type StreamECGFilter struct {
	// Noise suppression: two parallel 4-stage chains over the same input.
	// oc = Close(Open(x,k),k) = Erode,Dilate,Dilate,Erode;
	// co = Open(Close(x,k),k) = Dilate,Erode,Erode,Dilate.
	oc, co [4]StreamMorph
	// Baseline estimation over the suppressed signal:
	// Close(Open(y,openLen),closeLen) = Erode,Dilate (open) then
	// Dilate,Erode (close).
	base [4]StreamMorph
	// supRing delays the suppressed signal by the baseline-cascade delay so
	// the subtraction y - baseline is index-aligned; its length is a power
	// of two, indexed with supMask.
	supRing []float64
	supMask int
	supN    int
	baseDel int
	total   int
}

// NewStreamECGFilter builds the streaming front end for cfg.
func NewStreamECGFilter(cfg BaselineConfig) *StreamECGFilter {
	k := oddAtLeast(cfg.NoiseElem, 3)
	openL, closeL := cfg.openLen(), cfg.closeLen()
	f := &StreamECGFilter{
		oc: [4]StreamMorph{
			newStreamMorph(k, false), newStreamMorph(k, true),
			newStreamMorph(k, true), newStreamMorph(k, false),
		},
		co: [4]StreamMorph{
			newStreamMorph(k, true), newStreamMorph(k, false),
			newStreamMorph(k, false), newStreamMorph(k, true),
		},
		base: [4]StreamMorph{
			newStreamMorph(openL, false), newStreamMorph(openL, true),
			newStreamMorph(closeL, true), newStreamMorph(closeL, false),
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
	f.supRing = make([]float64, RingSize(f.baseDel+1))
	f.supMask = len(f.supRing) - 1
	return f
}

// Delay returns the filter's group delay: output sample i becomes available
// once input sample i+Delay() has been consumed.
func (f *StreamECGFilter) Delay() int { return f.total }

// pushChain feeds x through one 4-stage chain. A stage that is still
// filling ends the chain for this sample.
//
//rpbeat:allocfree
func pushChain(stages *[4]StreamMorph, x float64) (float64, bool) {
	v := x
	for i := range stages {
		var ok bool
		if v, ok = stages[i].Push(v); !ok {
			return 0, false
		}
	}
	return v, true
}

// Push consumes one raw sample and, once the cascade is primed, emits one
// filtered sample (aligned to input index n - Delay()).
//
//rpbeat:allocfree
func (f *StreamECGFilter) Push(x float64) (float64, bool) {
	a, okA := pushChain(&f.oc, x)
	b, okB := pushChain(&f.co, x)
	if !okA || !okB { // the chains share stage lengths, so okA == okB
		return 0, false
	}
	sup := 0.5 * (a + b)

	m := f.supN
	f.supRing[m&f.supMask] = sup
	f.supN++
	bl, ok := pushChain(&f.base, sup)
	if !ok {
		return 0, false
	}
	return f.supRing[(m-f.baseDel)&f.supMask] - bl, true
}

// streamDWTLevel computes one à trous level as a stream: given the level's
// approximation signal a (arriving one sample at a time), it emits the
// recentered detail sample w[i] and the next-level approximation sample,
// reproducing AtrousDWT exactly (the left border replicates a[0]; the right
// border is never reached by a stream).
type streamDWTLevel struct {
	gap, half int
	buf       []float64 // the last 4*gap inputs, indexed with mask
	mask      int
	n         int // input samples consumed
	out       int // next output index
	first     float64
	hasFirst  bool

	// fifo holds the detail samples this level has produced but StreamDWT
	// has not yet emitted, because the deeper (slower) levels have not
	// caught up: a power-of-two ring between monotone counters.
	fifo     []float64
	fifoMask int
	fifoHead int
	fifoTail int
}

// newStreamDWTLevel builds level `level`; lag is the total delay of the
// deeper levels, which bounds how far this level's output runs ahead of
// the aligned output.
func newStreamDWTLevel(level, lag int) streamDWTLevel {
	gap := 1 << level
	fifo := make([]float64, RingSize(lag+1))
	return streamDWTLevel{
		gap: gap, half: gap / 2,
		buf: make([]float64, 4*gap), mask: 4*gap - 1,
		fifo: fifo, fifoMask: len(fifo) - 1,
	}
}

// delay returns how many extra inputs must arrive before output i exists.
func (l *streamDWTLevel) delay() int { return l.half + 2*l.gap }

// push consumes one approximation sample. The oldest input it reads is
// index out+half-gap = n-1-3*gap, so the 4*gap buffer always holds it;
// only that tap can fall left of the signal, where it replicates a[0].
//
//rpbeat:allocfree
func (l *streamDWTLevel) push(a float64) (w, next float64, ok bool) {
	if !l.hasFirst {
		l.first, l.hasFirst = a, true
	}
	buf, mask := l.buf, l.mask
	buf[l.n&mask] = a
	l.n++

	c := l.out + l.half
	if c+2*l.gap >= l.n {
		return 0, 0, false
	}
	am := l.first
	if j := c - l.gap; j >= 0 {
		am = buf[j&mask]
	}
	a0 := buf[c&mask]
	ap := buf[(c+l.gap)&mask]
	app := buf[(c+2*l.gap)&mask]
	l.out++
	// Same expressions as AtrousDWT (recentered by half up front); the
	// float64 conversions round each product, so no platform fuses them.
	return 2 * (ap - a0), (am + float64(3*a0) + float64(3*ap) + app) / 8, true
}

// StreamDWT is the streaming à trous transform: it consumes one input sample
// per Push and, after Delay() samples of warm-up, emits the detail samples
// W[0..levels-1][i] for one index i per call, bit-identical to
// AtrousDWT(x, levels').W[j][i] for any levels' >= levels (deeper levels do
// not affect shallower ones).
type StreamDWT struct {
	levels []streamDWTLevel
	out    []float64
}

// NewStreamDWT builds a streaming transform with the given number of detail
// levels (>= 1).
func NewStreamDWT(levels int) *StreamDWT {
	if levels < 1 {
		levels = 1
	}
	d := &StreamDWT{
		levels: make([]streamDWTLevel, levels),
		out:    make([]float64, levels),
	}
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

// Push consumes one input sample. Once all levels have produced detail
// sample i it returns the slice [W0[i], W1[i], ...] and true. The returned
// slice is reused by the next call; copy it to retain.
//
//rpbeat:allocfree
func (d *StreamDWT) Push(x float64) ([]float64, bool) {
	levels := d.levels
	v := x
	for j := range levels {
		l := &levels[j]
		w, next, ok := l.push(v)
		if !ok {
			break
		}
		l.fifo[l.fifoTail&l.fifoMask] = w
		l.fifoTail++
		v = next
	}
	// Each level consumes the previous one's output, so the deepest level
	// is the last to produce sample i: once it has, every level has.
	if last := &levels[len(levels)-1]; last.fifoHead == last.fifoTail {
		return nil, false
	}
	for j := range levels {
		l := &levels[j]
		d.out[j] = l.fifo[l.fifoHead&l.fifoMask]
		l.fifoHead++
	}
	return d.out, true
}
