// Package pipeline chains the library's streaming operators into an online
// heartbeat classification engine: raw ADC samples go in one at a time, and
// classified beats come out as soon as they are final — the deployment shape
// of the paper's WBSN node (sub-systems (1) and (3) of Fig. 6) and the
// substrate the serving layer (cmd/rpserve) builds on.
//
// The stages are the exact streaming counterparts of the batch path that
// internal/wbsn runs over whole records:
//
//	raw ADC samples, in blocks of at most sigdsp.BlockSize
//	  └─ sigdsp.StreamFilter[int32] (noise suppression on ADC counts,
//	     millivolt conversion, baseline removal)
//	       └─ peak.StreamDetector (à trous scales, adaptive thresholds,
//	          modulus-maxima pairing, refractory arbitration)
//	            └─ beat window from the raw-sample ring
//	                 └─ downsampling → core.Embedded (integer RP + NFC)
//
// Each stage runs stage-major over a block and reports its group delay,
// every buffer is a fixed-size ring or a block-sized stack array, and the
// whole pipeline is bit-identical to the batch reference (BatchClassify)
// except within Delay() samples of the record end, where batch thresholds
// use future samples a stream cannot see. TestPipelineMatchesBatch holds the
// two paths to beat-for-beat equality.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/nfc"
	"rpbeat/internal/peak"
	"rpbeat/internal/sigdsp"
)

// Config parameterizes a streaming pipeline. The zero value selects the
// paper's deployment: 360 Hz, MIT-BIH ADC geometry, 100+100-sample beat
// windows.
type Config struct {
	// Fs is the sampling frequency; default ecgsyn.Fs (360 Hz).
	Fs float64
	// Gain (ADC units per millivolt) and ADCZero convert raw counts for the
	// detection path; classification consumes raw counts directly, as on
	// the node. Leaving Gain unset (<= 0) selects the MIT-BIH geometry
	// (ecgsyn.Gain / ecgsyn.Baseline). Setting Gain takes ADCZero as given,
	// so a zero baseline (signed, centered ADC counts) is expressible. A
	// non-finite Gain (NaN or ±Inf) is an error.
	Gain    float64
	ADCZero int32
	// Before/After set the beat window around the R peak; defaults 100/100.
	Before, After int
	// Peak tunes the detector. Fs is filled from Config.Fs and SearchBackOff
	// is forced on: search-back needs the record-wide median RR, which does
	// not exist online (use internal/wbsn for retrospective batch analysis).
	Peak peak.Config
	// Baseline tunes the morphological filter; zero value takes
	// sigdsp.DefaultBaselineConfig(Fs).
	Baseline sigdsp.BaselineConfig
	// BaseSample resumes an interrupted stream mid-record: it is the
	// absolute index of the first sample this pipeline will be fed, and it
	// shifts every emitted BeatResult (Peak, DetectedAt) into the original
	// stream's index space while phase-aligning the detector's threshold
	// windows with an uninterrupted run's (peak.Config.StartSample). Feed
	// the pipeline at least ResyncWarmup(cfg) samples of replayed history
	// before the point of interest and the beats it emits past BaseSample +
	// ResyncWarmup are bit-identical to the uninterrupted run — the contract
	// the gateway's failover replay journal is sized by. Zero (the default)
	// is a stream starting at its true beginning. Batch classification
	// ignores it.
	BaseSample int
}

// checkGain rejects a gain the millivolt conversion cannot use: NaN would
// turn every sample into NaN and +Inf every sample into ±0, and the
// streaming noise stage on ADC counts is exact only for a finite gain.
func (c Config) checkGain() error {
	if math.IsNaN(c.Gain) || math.IsInf(c.Gain, 0) {
		return fmt.Errorf("pipeline: gain %v is not finite", c.Gain)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Fs <= 0 {
		c.Fs = ecgsyn.Fs
	}
	if c.Gain <= 0 {
		c.Gain = ecgsyn.Gain
		if c.ADCZero == 0 {
			c.ADCZero = ecgsyn.Baseline
		}
	}
	if c.Before <= 0 {
		c.Before = 100
	}
	if c.After <= 0 {
		c.After = 100
	}
	c.Peak.Fs = c.Fs
	c.Peak.SearchBackOff = true
	if c.BaseSample < 0 {
		c.BaseSample = 0
	}
	// The detector's input index space is aligned with the raw input's (the
	// filter emits output i — the filtered value of raw sample i — once
	// input i+Delay() has arrived), so the window phase of a resumed stream
	// is BaseSample itself.
	c.Peak.StartSample = c.BaseSample
	if c.Baseline.Fs <= 0 {
		c.Baseline = sigdsp.DefaultBaselineConfig(c.Fs)
	}
	return c
}

// BeatResult is one classified beat.
type BeatResult struct {
	// Peak is the R-peak position, as a sample index into the input stream.
	Peak int
	// Decision is the integer classifier's verdict (N, L, V or U).
	Decision nfc.Decision
	// DetectedAt is the index of the input sample whose arrival finalized
	// this beat; DetectedAt-Peak is the end-to-end latency in samples.
	DetectedAt int
}

// Pipeline is a single-stream online classifier. It is not safe for
// concurrent use; Engine multiplexes many pipelines over a worker pool.
type Pipeline struct {
	emb         *core.Embedded
	cfg         Config
	filter      *sigdsp.StreamFilter[int32]
	filterDelay int
	det         *peak.StreamDetector

	raw     []int32 // ring of raw ADC counts (power-of-two length)
	rawMask int     // len(raw)-1, for mask-indexing the ring
	n       int     // samples consumed
	flushed bool

	window []int32 // scratch: assembled beat window
	ds     []int32 // scratch: downsampled window
	scr    core.Scratch
	out    []BeatResult
}

// New builds a pipeline around a validated embedded classifier.
func New(emb *core.Embedded, cfg Config) (*Pipeline, error) {
	if emb == nil {
		return nil, errors.New("pipeline: nil classifier")
	}
	if err := emb.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.checkGain(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	if want := dimAfter(c.Before+c.After, emb.Downsample); want != emb.D {
		return nil, fmt.Errorf("pipeline: window %d+%d at downsample %d gives dimension %d, model wants %d",
			c.Before, c.After, emb.Downsample, want, emb.D)
	}
	det, err := peak.NewStreamDetector(c.Peak)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		emb:    emb,
		cfg:    c,
		filter: sigdsp.NewStreamFilter[int32](c.Baseline, float64(c.ADCZero), c.Gain),
		det:    det,
		window: make([]int32, c.Before+c.After),
		ds:     make([]int32, emb.D),
	}
	p.filterDelay = p.filter.Delay()
	p.scr.Grow(emb)
	// The ring must still hold sample max(0, peak-Before) when a peak
	// finalizes, at worst Delay() samples after the peak position, while
	// the rest of the finalizing sample's block (under BlockSize samples)
	// is already in the ring.
	p.raw = make([]int32, sigdsp.RingSize(p.Delay()+c.Before+c.After+64+sigdsp.BlockSize))
	p.rawMask = len(p.raw) - 1
	return p, nil
}

func dimAfter(n, downsample int) int {
	if downsample <= 1 {
		return n
	}
	return (n + downsample - 1) / downsample
}

// Delay returns the worst-case latency, in input samples, between an R peak
// entering the pipeline and its classified beat being emitted: the filter's
// group delay plus the detector's finalization bound.
func (p *Pipeline) Delay() int {
	return p.filter.Delay() + p.det.Delay()
}

// ResyncWarmup returns W, the replay bound of the deterministic-resume
// contract: a fresh pipeline opened with Config.BaseSample = B and fed the
// original stream's samples from B onward emits beats bit-identical to the
// uninterrupted run for every beat finalized past B + W. A replay journal
// that retains the last W samples of uplink therefore makes mid-stream
// failover invisible (internal/gate sizes its journals with this).
//
// The bound stacks every source of left-border divergence a resumed run
// has, each rounded up to its full support:
//
//   - the morphological filter's border replication (≤ 2x its group delay
//     of input history feeds one output);
//   - the à trous decomposition's border replication and the first,
//     shortened threshold window, whose RMS normalization differs from the
//     original's full window (≤ one detector delay + one window);
//   - carried arbitration state (pairing extremum, refractory candidate)
//     seeded inside the divergent region (≤ one more detector delay);
//   - the classification window and suppression slack: the beat window
//     reaches Before samples behind a peak, and the original run's last
//     delivered beat can trail the failure point by a full pipeline delay.
//
// It is deliberately a safe over-approximation (~a dozen seconds of signal
// at the paper's 360 Hz deployment), not a tight one: journal memory is
// cheap, a divergent beat after failover is not.
func ResyncWarmup(cfg Config) int {
	c := cfg.withDefaults()
	filter := sigdsp.NewStreamECGFilter(c.Baseline)
	// withDefaults forces SearchBackOff, the only constructor error.
	det, err := peak.NewStreamDetector(c.Peak)
	if err != nil {
		panic("pipeline: ResyncWarmup: " + err.Error())
	}
	return 3*filter.Delay() + 2*det.Delay() + det.Window() + c.Before + c.After
}

// MemoryBytes reports the pipeline's fixed working set: the raw ring, the
// classifier tables (including the sparse projection kernel the host hot
// path runs) and the scratch buffers. It does not grow with stream length
// or chunk size (asserted by TestPipelineBoundedMemory): the block buffers
// are stack arrays of sigdsp.BlockSize samples.
func (p *Pipeline) MemoryBytes() int {
	return 4*len(p.raw) + p.emb.HostBytes() +
		4*(len(p.window)+len(p.ds)) + p.scr.MemoryBytes()
}

// Samples returns how many input samples the pipeline has consumed.
func (p *Pipeline) Samples() int { return p.n }

// Push consumes one raw ADC sample and returns the beats it finalized
// (usually none — beats surface in bursts as threshold windows complete).
// It is a one-sample block through the same kernels as PushChunk. The
// returned slice is reused by the next call; copy it to retain.
//
//rpbeat:allocfree
func (p *Pipeline) Push(sample int32) []BeatResult {
	p.out = p.out[:0]
	p.raw[p.n&p.rawMask] = sample
	p.n++
	if y, ok := p.filter.Push(sample); ok {
		in := [1]float64{y}
		p.detect(in[:])
	}
	return p.out
}

// PushChunk consumes a whole chunk of raw ADC samples and invokes emit once
// with every beat the chunk finalized, in input order (emit is not called
// for chunks that finalize nothing). It is bit-identical to calling Push per
// sample and concatenating the results: the chunk runs stage-major in
// blocks of at most sigdsp.BlockSize samples, and every beat carries the
// sample that finalized it. This is what the engine's workers and
// /v1/stream run. The slice passed to emit is reused by the next
// Push/PushChunk call; copy it to retain.
//
//rpbeat:allocfree
func (p *Pipeline) PushChunk(samples []int32, emit func([]BeatResult)) {
	p.out = p.out[:0]
	var y [sigdsp.BlockSize]float64
	raw, mask := p.raw, p.rawMask
	for len(samples) > 0 {
		blk := samples[:min(len(samples), sigdsp.BlockSize)]
		for _, v := range blk {
			raw[p.n&mask] = v
			p.n++
		}
		p.detect(p.filter.Block(y[:], blk))
		samples = samples[len(blk):]
	}
	if len(p.out) > 0 && emit != nil {
		emit(p.out)
	}
}

// detect runs filtered samples through the detector and classifies the
// beats they finalize. The whole block is already in the raw ring, so each
// beat's window is clipped at its finalizing sample, as a sample-at-a-time
// run would see the ring.
//
//rpbeat:allocfree
func (p *Pipeline) detect(y []float64) {
	for _, d := range p.det.Block(y) {
		// The detector indexes filtered samples; filtered sample i arrives
		// with raw sample i+filterDelay.
		p.classify(d.Pos, d.At+p.filterDelay+1)
	}
}

// millivolts converts one raw ADC count for the detection path. The
// subtraction runs in float64, where it is exact for every int32 pair: an
// int32 difference would wrap for samples within |zero| of either end of
// the range and flip their sign.
func millivolts(v int32, zero, gain float64) float64 {
	return (float64(v) - zero) / gain
}

// Flush ends the stream, draining the detector's final threshold window and
// pending candidate. Push must not be called afterwards.
func (p *Pipeline) Flush() []BeatResult {
	p.out = p.out[:0]
	if p.flushed {
		return nil
	}
	p.flushed = true
	for _, pk := range p.det.Flush() {
		p.classify(pk, p.n)
	}
	return p.out
}

// classify cuts the beat window out of the raw ring (with the same edge
// replication as sigdsp.WindowInt, over the first n samples: those a
// per-sample run had consumed when the beat finalized), downsamples and
// runs the integer RP + NFC classifier.
//
//rpbeat:allocfree
func (p *Pipeline) classify(pk, n int) {
	for i := range p.window {
		j := pk - p.cfg.Before + i
		if j < 0 {
			j = 0
		}
		if j >= n {
			j = n - 1
		}
		p.window[i] = p.raw[j&p.rawMask]
	}
	sigdsp.DownsampleIntInto(p.ds, p.window, p.emb.Downsample)
	d := p.emb.ClassifyInto(p.ds, &p.scr)
	// Indices are kept relative internally (ring masks, detector state) and
	// re-based on emission, so a resumed stream reports absolute positions.
	p.out = append(p.out, BeatResult{
		Peak:       p.cfg.BaseSample + pk,
		Decision:   d,
		DetectedAt: p.cfg.BaseSample + n - 1,
	})
}

// BatchClassify is the whole-record reference path: the exact batch
// operators (sigdsp.FilterECG, peak.Detect with search-back off,
// sigdsp.WindowInt + DownsampleInt, core.Embedded.Classify) in the
// configuration a Pipeline streams. The streaming results are bit-identical
// to it away from the record tail; it also serves the /v1/classify endpoint,
// where the whole record is available up front.
//
// Each call allocates its own working buffers. Request loops should hold a
// BatchScratch (e.g. in a sync.Pool, as internal/serve does) and call
// BatchClassifyInto instead.
func BatchClassify(ctx context.Context, emb *core.Embedded, lead []int32, cfg Config) ([]BeatResult, error) {
	beats, err := BatchClassifyInto(ctx, emb, lead, cfg, new(BatchScratch))
	if err != nil {
		return nil, err
	}
	out := make([]BeatResult, len(beats))
	copy(out, beats)
	return out, nil
}

// BatchScratch holds the reusable working buffers of one batch
// classification: the millivolt conversion of the record, the per-beat
// window/downsample/projection/grade scratch and the result slice. A zero
// value is ready to use; buffers grow to the largest record seen and are
// reused afterwards. Not safe for concurrent use.
type BatchScratch struct {
	mv       []float64
	filtered []float64
	filt     sigdsp.FilterScratch
	det      peak.Scratch
	window   []int32
	ds       []int32
	cls      core.Scratch
	beats    []BeatResult
}

// BatchClassifyInto is BatchClassify running through the caller's scratch
// buffers: the front-end filter and wavelet decomposition, the detector's
// threshold/candidate lists and all O(beats) buffers are reused across
// calls, so a warm scratch classifies a record with O(1) allocations. The
// returned slice aliases s and is valid until the next call with the same
// scratch; copy it to retain.
//
// The context is honored at the record granularity a request cares about:
// checked on entry, after the front-end (filter + detector, the bulk of the
// work) and every classifyCtxStride beats, so an abandoned request stops
// burning the worker quickly without putting a check in the per-beat hot
// loop. Cancellation returns ctx.Err() (typed by the serving layer).
func BatchClassifyInto(ctx context.Context, emb *core.Embedded, lead []int32, cfg Config, s *BatchScratch) ([]BeatResult, error) {
	if emb == nil {
		return nil, errors.New("pipeline: nil classifier")
	}
	if s == nil {
		return nil, errors.New("pipeline: nil scratch")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := emb.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.checkGain(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	if want := dimAfter(c.Before+c.After, emb.Downsample); want != emb.D {
		return nil, fmt.Errorf("pipeline: window %d+%d at downsample %d gives dimension %d, model wants %d",
			c.Before, c.After, emb.Downsample, want, emb.D)
	}
	s.mv = growFloat(s.mv, len(lead))
	mv := s.mv[:len(lead)]
	zero := float64(c.ADCZero)
	for i, v := range lead {
		mv[i] = millivolts(v, zero, c.Gain)
	}
	s.filtered = sigdsp.FilterECGInto(s.filtered, mv, c.Baseline, &s.filt)
	peaks := peak.DetectInto(s.filtered, c.Peak, &s.det)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s.window = growInt32(s.window, c.Before+c.After)[:c.Before+c.After]
	s.ds = growInt32(s.ds, emb.D)[:emb.D]
	s.cls.Grow(emb)
	s.beats = s.beats[:0]
	for i, pk := range peaks {
		if i%classifyCtxStride == classifyCtxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sigdsp.WindowIntInto(s.window, lead, pk, c.Before)
		sigdsp.DownsampleIntInto(s.ds, s.window, emb.Downsample)
		d := emb.ClassifyInto(s.ds, &s.cls)
		s.beats = append(s.beats, BeatResult{Peak: pk, Decision: d, DetectedAt: len(lead) - 1})
	}
	return s.beats, nil
}

// classifyCtxStride is how many beats the batch loop classifies between
// context checks (~64 beats ≈ one minute of signal per check).
const classifyCtxStride = 64

func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
