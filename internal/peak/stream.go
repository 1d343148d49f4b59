package peak

// Streaming R-peak detection with bounded memory.
//
// StreamDetector reproduces Detect exactly — same à trous scales, same
// windowed-RMS adaptive thresholds, same modulus-maxima pairing, zero
// crossing localization and refractory arbitration — but consumes the
// filtered lead as it arrives, block by block (a block may be one sample),
// with the same peaks for any split. The batch function is the reference:
// on any signal, the peaks a StreamDetector emits are identical to
// Detect(x, cfg) up to the right signal border (the final thresholds of a
// batch run use the last, partial RMS window of the whole record, which a
// stream only sees at Flush; peaks earlier than roughly Delay() samples
// before the end are unaffected).
//
// The one batch feature with no causal equivalent is search-back: it
// re-scans long RR gaps against the *record-wide* median RR, a global
// statistic a stream cannot know. NewStreamDetector therefore requires
// cfg.SearchBackOff to be set, and parity holds against the batch detector
// configured the same way.

import (
	"errors"
	"math"

	"rpbeat/internal/sigdsp"
)

// streamDWTLevels is how many à trous detail levels the detector consumes:
// the detection signal z uses scales 2^2 and 2^3 (levels 1 and 2).
const streamDWTLevels = 3

// StreamDetector is the online QRS detector. Feed it filtered samples with
// Block (or Push, a one-sample block); peak indices come back (possibly
// several per call, usually none) once they are final, i.e. once no future
// sample can change them.
type StreamDetector struct {
	c                  Config
	dwt                *sigdsp.StreamDWT
	dwtDelay           int
	win, pair, refract int
	// nextWin is how many detection-scale samples complete the window being
	// buffered right now: win - (StartSample mod win) for the first window of
	// a resumed stream (so later boundaries align with an uninterrupted
	// run's), win for every window after it.
	nextWin int

	// Current adaptive-threshold window of the two detection scales.
	wbase int // absolute index of the window's first sample
	wbuf  [2][]float64
	sumsq [2]float64
	wN    int // detection-scale samples consumed

	// Detection signal and its threshold, as power-of-two rings indexed by
	// absolute sample position masked with mask. Positions are absolute, so
	// any ring of at least win+pair+16 samples holds every sample a scan or
	// zero crossing still reads.
	z, thrZ []float64
	mask    int
	zN      int // detection-signal samples produced
	scan    int // next index to scan for significant extrema

	havePrev bool // last significant extremum (pair-window state)
	prevPos  int
	prevVal  float64

	hasPending bool // last kept candidate, not yet final (refractory state)
	pending    candidate

	found   []Detection
	emit    []int
	flushed bool
}

// Detection is one finalized R peak.
type Detection struct {
	// Pos is the peak's sample index, aligned with the input.
	Pos int
	// At is the index of the input sample whose arrival finalized the peak:
	// the sample a per-sample caller would have been pushing.
	At int
}

// NewStreamDetector builds a streaming detector. cfg.SearchBackOff must be
// set: search-back needs the record-wide median RR, which does not exist
// online (see the package comment above).
func NewStreamDetector(cfg Config) (*StreamDetector, error) {
	c := cfg.withDefaults()
	if !c.SearchBackOff {
		return nil, errors.New("peak: streaming detection requires Config.SearchBackOff (search-back needs the record-wide median RR)")
	}
	win := int(c.WindowSec * c.Fs)
	if win < 8 {
		win = 8 // windowedRMS applies the same floor
	}
	d := &StreamDetector{
		c:       c,
		dwt:     sigdsp.NewStreamDWT(streamDWTLevels),
		win:     win,
		pair:    int(c.PairSec * c.Fs),
		refract: int(c.RefractorySec * c.Fs),
		scan:    1, // the batch extremum scan starts at index 1
	}
	d.dwtDelay = d.dwt.Delay()
	d.nextWin = win
	if c.StartSample > 0 {
		// Resuming at absolute sample S: shorten the first threshold window
		// to win - (S mod win) samples, so this detector's later window
		// boundaries fall on the same absolute indices as those of a detector
		// that started at sample zero. Only S mod win matters — the wavelet
		// warm-up offsets are the same for both runs and cancel.
		if phase := c.StartSample % win; phase != 0 {
			d.nextWin = win - phase
		}
	}
	ring := sigdsp.RingSize(d.win + d.pair + 16)
	d.mask = ring - 1
	d.z = make([]float64, ring)
	d.thrZ = make([]float64, ring)
	d.wbuf[0] = make([]float64, 0, d.win)
	d.wbuf[1] = make([]float64, 0, d.win)
	return d, nil
}

// Delay returns the worst-case number of input samples between a peak's
// position and its emission: the wavelet warm-up, up to two threshold
// windows (the detection signal and its own RMS complete per window), and
// the refractory + pairing margin that makes a candidate final.
func (d *StreamDetector) Delay() int {
	return d.dwtDelay + 2*d.win + d.refract + d.pair + 2
}

// Window returns the adaptive-threshold window length in samples — the
// quantum of the detector's phase grid, which a resumed stream must align to
// (Config.StartSample) for bit-identical detections.
func (d *StreamDetector) Window() int { return d.win }

// Push consumes one sample of the filtered lead and returns the R peaks
// finalized by it, as absolute sample indices (aligned with the input). It
// is a one-sample Block. The returned slice is reused by the next call;
// copy it to retain.
//
//rpbeat:allocfree
func (d *StreamDetector) Push(x float64) []int {
	d.emit = d.emit[:0]
	in := [1]float64{x}
	for _, f := range d.Block(in[:]) {
		d.emit = append(d.emit, f.Pos)
	}
	return d.emit
}

// Block consumes a block of the filtered lead and returns the R peaks it
// finalized, in order, each with the index of the sample that finalized
// it. The result is the same for any split of a stream into blocks. The
// returned slice is reused by the next call; copy it to retain.
//
//rpbeat:allocfree
func (d *StreamDetector) Block(x []float64) []Detection {
	d.found = d.found[:0]
	for len(x) > 0 {
		m := min(len(x), sigdsp.BlockSize)
		d.dwt.Block(x[:m])
		d.feedWindows(d.dwt.Detail(1), d.dwt.Detail(2))
		x = x[m:]
	}
	return d.found
}

// feedWindows feeds the detection scales w1 and w2 (levels 1 and 2) into the
// threshold windows, completing each window as it fills.
//
//rpbeat:allocfree
func (d *StreamDetector) feedWindows(w1, w2 []float64) {
	for len(w1) > 0 {
		take := min(len(w1), d.nextWin-len(d.wbuf[0]))
		// The float64 conversions round each square before the sum, as the
		// batch windowed RMS does, so no platform fuses them into an FMA.
		s1, s2 := d.sumsq[0], d.sumsq[1]
		for i, v := range w1[:take] {
			u := w2[i]
			s1 += float64(v * v)
			s2 += float64(u * u)
		}
		d.sumsq[0], d.sumsq[1] = s1, s2
		d.wbuf[0] = append(d.wbuf[0], w1[:take]...)
		d.wbuf[1] = append(d.wbuf[1], w2[:take]...)
		d.wN += take
		w1, w2 = w1[take:], w2[take:]
		if len(d.wbuf[0]) == d.nextWin {
			// Detection-scale sample i arrives with input i+dwtDelay.
			d.completeWindow(d.wN - 1 + d.dwtDelay)
		}
	}
}

// Flush finishes the stream: the final partial threshold window is processed
// (as the batch windowed RMS does for the record tail) and the pending
// candidate, which no longer has future rivals, is emitted.
func (d *StreamDetector) Flush() []int {
	d.emit = d.emit[:0]
	if d.flushed {
		return nil
	}
	d.flushed = true
	d.found = d.found[:0]
	d.completeWindow(d.wN - 1 + d.dwtDelay)
	for _, f := range d.found {
		d.emit = append(d.emit, f.Pos)
	}
	if d.hasPending {
		d.emit = append(d.emit, d.pending.pos)
		d.hasPending = false
	}
	return d.emit
}

// completeWindow turns the buffered detection-scale samples into detection
// signal + thresholds (exactly windowedRMS + the z formula of decompose) and
// advances the extremum scan.
func (d *StreamDetector) completeWindow(at int) {
	count := len(d.wbuf[0])
	if count == 0 {
		return
	}
	thr1 := math.Sqrt(d.sumsq[0] / float64(count))
	thr2 := math.Sqrt(d.sumsq[1] / float64(count))
	var zs float64
	base := d.wbase
	for k := 0; k < count; k++ {
		zv := d.wbuf[0][k]/(thr1+1e-300) + d.wbuf[1][k]/(thr2+1e-300)
		d.z[(base+k)&d.mask] = zv
		zs += float64(zv * zv)
	}
	tz := math.Sqrt(zs / float64(count))
	for k := 0; k < count; k++ {
		d.thrZ[(base+k)&d.mask] = tz
	}
	d.zN = base + count
	d.wbase = d.zN
	d.nextWin = d.win // only the first window of a resumed stream is short
	d.wbuf[0] = d.wbuf[0][:0]
	d.wbuf[1] = d.wbuf[1][:0]
	d.sumsq[0], d.sumsq[1] = 0, 0
	d.advance(at)
}

// advance scans newly available detection-signal samples for significant
// extrema (the detectPass criteria) and finalizes the pending candidate once
// no future candidate can fall inside its refractory period. at is the
// index of the input sample being consumed, recorded on every peak this
// finalizes.
func (d *StreamDetector) advance(at int) {
	for d.scan+1 < d.zN {
		i := d.scan
		d.scan++
		v := d.z[i&d.mask]
		if math.Abs(v) < d.c.ThresholdFactor*d.thrZ[i&d.mask] {
			continue
		}
		prev := d.z[(i-1)&d.mask]
		next := d.z[(i+1)&d.mask]
		if (v > 0 && v >= prev && v > next) || (v < 0 && v <= prev && v < next) {
			d.extremum(i, v, at)
		}
	}
	// A future candidate's position is at least scan-pair (its pair partner
	// must lie within the pair window of a yet-unscanned extremum), so once
	// that bound clears the refractory period the pending candidate is final.
	if d.hasPending && d.scan-d.pair >= d.pending.pos+d.refract {
		d.found = append(d.found, Detection{Pos: d.pending.pos, At: at})
		d.hasPending = false
	}
}

func (d *StreamDetector) extremum(pos int, val float64, at int) {
	if d.havePrev && d.prevVal*val < 0 && pos-d.prevPos <= d.pair {
		zc := d.zeroCross(d.prevPos, pos)
		if zc < 0 {
			zc = (d.prevPos + pos) / 2
		}
		d.candidate(candidate{pos: zc, amp: math.Abs(d.prevVal) + math.Abs(val)}, at)
	}
	d.havePrev, d.prevPos, d.prevVal = true, pos, val
}

// zeroCross is zeroCrossing over the detection-signal ring.
func (d *StreamDetector) zeroCross(lo, hi int) int {
	for i := lo; i < hi; i++ {
		wi := d.z[i&d.mask]
		if wi == 0 {
			return i
		}
		wn := d.z[(i+1)&d.mask]
		if (wi > 0) != (wn > 0) {
			if math.Abs(wi) <= math.Abs(wn) {
				return i
			}
			return i + 1
		}
	}
	return -1
}

// candidate applies the refractory arbitration incrementally: candidates
// arrive position-ordered, so only the last kept one can still be replaced.
func (d *StreamDetector) candidate(c candidate, at int) {
	if !d.hasPending {
		d.pending, d.hasPending = c, true
		return
	}
	if c.pos-d.pending.pos < d.refract {
		if c.amp > d.pending.amp {
			d.pending = c
		}
		return
	}
	d.found = append(d.found, Detection{Pos: d.pending.pos, At: at})
	d.pending = c
}
