package pipeline

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/sigdsp"
)

// FuzzStreamFrontendChunking is the stream-vs-reference differential of
// the front end, over arbitrary int32 streams (the wire accepts the whole
// range) cut into arbitrary chunks. For every input it requires:
//
//  1. Chunking invariance: the beats of PushChunk over the chunk split
//     (then Flush) equal the beats of one Push per sample (then Flush),
//     finalizing sample included.
//  2. Filter parity: the int32 front end (noise suppression on ADC counts)
//     emits, at every index it emits, exactly batch FilterECG's value over
//     the millivolt-converted stream.
//  3. Float kernels: on a float stream full of -0/+0 ties, the float64
//     erosion and dilation kernels (width-3 carry and segments) and the float
//     front end equal batch Erode, Dilate and FilterECG bit for bit.
//
// Input layout: data[0] selects the stream (bit 0: a synthetic ECG
// overlaid with edits, else raw little-endian int32 samples) and the ADC
// geometry (bit 1: a negative zero offset); data[1]%16 split bytes follow,
// each one chunk length (cycled; none: the whole stream in one chunk);
// the rest is the stream body. An overlay edit is 7 bytes: a position, a
// run length and the run's int32 value, so runs pinned at MinInt32 or
// MaxInt32 land inside real beats.
//
// `go test` runs the seeds (testdata/fuzz plus those added below); CI
// explores further with a bounded -fuzztime.
func FuzzStreamFrontendChunking(f *testing.F) {
	le := func(v int32) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(v)) }
	edit := func(pos uint16, run byte, v int32) []byte {
		return append(binary.LittleEndian.AppendUint16(nil, pos), append([]byte{run}, le(v)...)...)
	}
	// The plain synthetic record in gateway and fleet chunks.
	f.Add([]byte{1, 2, 35, 179})
	// Saturated runs at both ends of the range, chunks straddling blocks.
	f.Add(slices.Concat([]byte{1, 3, 6, 255, 0},
		edit(1000, 200, math.MinInt32), edit(2500, 90, math.MaxInt32), edit(3000, 3, 0)))
	// Raw extremes, one sample per chunk, negative zero offset.
	f.Add(slices.Concat([]byte{2, 1, 0},
		le(math.MinInt32), le(math.MaxInt32), le(math.MinInt32), le(-1), le(0), le(1), le(math.MaxInt32)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode := data[0]
		splits := chunkSplits(data[2:min(2+int(data[1]%16), len(data))])
		body := data[min(2+int(data[1]%16), len(data)):]
		var lead []int32
		if mode&1 != 0 {
			lead = overlay(fuzzBaseLead(), body)
		} else {
			for ; len(body) >= 4; body = body[4:] {
				lead = append(lead, int32(binary.LittleEndian.Uint32(body)))
			}
		}
		cfg := Config{}
		if mode&2 != 0 {
			cfg = Config{Gain: ecgsyn.Gain, ADCZero: -ecgsyn.Baseline}
		}
		checkChunkedBeats(t, lead, cfg, splits)
		checkFilterParity(t, lead, cfg, splits)
		checkFloatKernels(t, data, splits)
	})
}

// chunkSplits maps split bytes to chunk lengths: 1..250 directly, larger
// bytes to chunks of several blocks.
func chunkSplits(b []byte) []int {
	out := make([]int, len(b))
	for i, v := range b {
		if v < 250 {
			out[i] = int(v) + 1
		} else {
			out[i] = (int(v) - 249) * 300
		}
	}
	return out
}

// eachChunk calls f with consecutive chunks of x, cycling through splits
// (the whole of x at once when there are none).
func eachChunk[T any](x []T, splits []int, f func([]T)) {
	if len(splits) == 0 {
		f(x)
		return
	}
	for i, k := 0, 0; i < len(x); k++ {
		n := min(splits[k%len(splits)], len(x)-i)
		f(x[i : i+n])
		i += n
	}
}

var (
	fuzzBaseOnce sync.Once
	fuzzBase     []int32
)

// fuzzBaseLead is the synthetic ECG the overlay mode edits: long enough
// for the detector to finalize beats.
func fuzzBaseLead() []int32 {
	fuzzBaseOnce.Do(func() {
		fuzzBase = ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "fuzz", Seconds: 12, Seed: 5, PVCRate: 0.2}).Leads[0]
	})
	return fuzzBase
}

// overlay copies base and applies the 7-byte edits in body.
func overlay(base []int32, body []byte) []int32 {
	lead := slices.Clone(base)
	for ; len(body) >= 7; body = body[7:] {
		pos := int(binary.LittleEndian.Uint16(body)) % len(lead)
		run := int(body[2])
		v := int32(binary.LittleEndian.Uint32(body[3:]))
		for i := pos; i < min(pos+run+1, len(lead)); i++ {
			lead[i] = v
		}
	}
	return lead
}

func checkChunkedBeats(t *testing.T, lead []int32, cfg Config, splits []int) {
	emb := testModel(t)
	perSample, err := New(emb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []BeatResult
	for _, v := range lead {
		want = append(want, perSample.Push(v)...)
	}
	want = append(want, perSample.Flush()...)

	chunked, err := New(emb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []BeatResult
	eachChunk(lead, splits, func(c []int32) {
		chunked.PushChunk(c, func(b []BeatResult) { got = append(got, b...) })
	})
	got = append(got, chunked.Flush()...)
	if !slices.Equal(got, want) {
		t.Fatalf("PushChunk over splits %v emitted %d beats %v, per-sample Push %d beats %v",
			splits, len(got), got, len(want), want)
	}
}

func checkFilterParity(t *testing.T, lead []int32, cfg Config, splits []int) {
	c := cfg.withDefaults()
	mv := make([]float64, len(lead))
	for i, v := range lead {
		mv[i] = millivolts(v, float64(c.ADCZero), c.Gain)
	}
	batch := sigdsp.FilterECG(mv, c.Baseline)
	f := sigdsp.NewStreamFilter[int32](c.Baseline, float64(c.ADCZero), c.Gain)
	var got []float64
	eachChunk(lead, splits, func(chunk []int32) {
		got = append(got, f.Block(make([]float64, len(chunk)), chunk)...)
	})
	if want := max(len(lead)-f.Delay(), 0); len(got) != want {
		t.Fatalf("int32 filter emitted %d samples of %d, want %d", len(got), len(lead), want)
	}
	for i, y := range got {
		if math.Float64bits(y) != math.Float64bits(batch[i]) {
			t.Fatalf("int32 filter sample %d (splits %v): stream %v, batch FilterECG %v", i, splits, y, batch[i])
		}
	}
}

// tieValues are the float samples of the third check: both zeros, so the
// kernels' newest-wins tie rule decides which one comes out.
var tieValues = [...]float64{math.Copysign(0, -1), 0, -1, 1, 0.5}

func checkFloatKernels(t *testing.T, data []byte, splits []int) {
	// At least 1000 samples, so the front end (delay 184) emits: short
	// inputs repeat, shifted by one value per repetition.
	x := make([]float64, max(len(data), 1000))
	for i := range x {
		x[i] = tieValues[(int(data[i%len(data)])+i/len(data))%len(tieValues)]
	}
	for _, length := range []int{3, 5, 9} {
		for _, dilate := range []bool{false, true} {
			s, batch := sigdsp.NewStreamErode[float64](length), sigdsp.Erode(x, length)
			if dilate {
				s, batch = sigdsp.NewStreamDilate[float64](length), sigdsp.Dilate(x, length)
			}
			var got []float64
			eachChunk(x, splits, func(c []float64) {
				got = append(got, s.Block(make([]float64, len(c)), c)...)
			})
			if want := max(len(x)-s.Delay(), 0); len(got) != want {
				t.Fatalf("length %d dilate %v: emitted %d samples, want %d", length, dilate, len(got), want)
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(batch[i]) {
					t.Fatalf("length %d dilate %v sample %d: stream %v, batch %v", length, dilate, i, v, batch[i])
				}
			}
		}
	}
	// The whole float front end, which the tie stream drives through -0
	// sums and baseline ties.
	cfg := sigdsp.DefaultBaselineConfig(ecgsyn.Fs)
	batch := sigdsp.FilterECG(x, cfg)
	f := sigdsp.NewStreamECGFilter(cfg)
	var got []float64
	eachChunk(x, splits, func(c []float64) {
		got = append(got, f.Block(make([]float64, len(c)), c)...)
	})
	for i, y := range got {
		if math.Float64bits(y) != math.Float64bits(batch[i]) {
			t.Fatalf("float filter sample %d: stream %v, batch FilterECG %v", i, y, batch[i])
		}
	}
}
