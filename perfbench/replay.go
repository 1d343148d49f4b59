package main

import (
	"context"
	"fmt"
	"slices"

	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/peak"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/sigdsp"
	"rpbeat/internal/wire"
)

// The layer replay feeds a workload's exact records and chunks through each
// layer's public operators, one goroutine at a time, and times each
// operator alone. Every figure is the median of replayPasses passes.
const replayPasses = 5

// timed returns the median wall time, in ns, of replayPasses runs of fn.
func timed(fn func()) float64 {
	var ns []float64
	for range replayPasses {
		t0 := mono()
		fn()
		ns = append(ns, float64(mono()-t0))
	}
	return median(ns)
}

// baselineCfg and peakCfg are the serving front-end configuration, as
// pipeline.Config's defaults set it.
var (
	baselineCfg = sigdsp.DefaultBaselineConfig(ecgsyn.Fs)
	peakCfg     = peak.Config{Fs: ecgsyn.Fs, SearchBackOff: true}
)

func millivolts(lead []int32) []float64 {
	mv := make([]float64, len(lead))
	for i, v := range lead {
		mv[i] = float64(v-ecgsyn.Baseline) / ecgsyn.Gain
	}
	return mv
}

// streamLayers times the streaming path over recs in chunk-sample chunks:
// the whole pipeline (PushChunk + Flush), and its stages alone — the
// StreamECGFilter, the StreamDetector on the filter's output, and each
// head's ClassifyInto on the detected beats' windows.
type streamLayers struct {
	pushNs, filterNs, detectNs float64 // per sample
	classifyNs                 [numHeads]float64
	beatsPerSample             float64
}

func replayStream(ms *modelSet, recs []record, chunk int) (streamLayers, error) {
	var out streamLayers
	samples := 0
	for _, r := range recs {
		samples += len(r.lead)
	}
	// The whole pipeline, heads alternating by record as in the workloads.
	pipes := make([]*pipeline.Pipeline, len(recs))
	pushNs := timed(func() {
		for i := range pipes {
			pipes[i], _ = pipeline.New(ms.emb[i%numHeads], pipeline.Config{})
		}
		for i, r := range recs {
			for off := 0; off < len(r.lead); off += chunk {
				pipes[i].PushChunk(r.lead[off:min(off+chunk, len(r.lead))], nil)
			}
			pipes[i].Flush()
		}
	})
	// Pipeline construction is engine.open's cost; take it out again.
	newNs := timed(func() {
		for i := range pipes {
			pipes[i], _ = pipeline.New(ms.emb[i%numHeads], pipeline.Config{})
		}
	})
	out.pushNs = (pushNs - newNs) / float64(samples)

	mv := make([][]float64, len(recs))
	filtered := make([][]float64, len(recs))
	for i, r := range recs {
		mv[i] = millivolts(r.lead)
		filtered[i] = make([]float64, 0, len(r.lead))
	}
	out.filterNs = timed(func() {
		for i := range recs {
			f := sigdsp.NewStreamECGFilter(baselineCfg)
			filtered[i] = filtered[i][:0]
			for _, x := range mv[i] {
				if y, ok := f.Push(x); ok {
					filtered[i] = append(filtered[i], y)
				}
			}
		}
	}) / float64(samples)

	peaks := make([][]int, len(recs))
	var detErr error
	out.detectNs = timed(func() {
		for i := range recs {
			d, err := peak.NewStreamDetector(peakCfg)
			if err != nil {
				detErr = err
				return
			}
			peaks[i] = peaks[i][:0]
			for _, y := range filtered[i] {
				peaks[i] = append(peaks[i], d.Push(y)...)
			}
			peaks[i] = append(peaks[i], d.Flush()...)
		}
	}) / float64(samples)
	if detErr != nil {
		return out, detErr
	}

	windows, nbeats := beatWindows(recs, peaks)
	out.beatsPerSample = float64(nbeats) / float64(samples)
	for h := range numHeads {
		out.classifyNs[h] = classifyPerBeat(ms.emb[h], windows)
	}
	return out, nil
}

// beatWindows cuts each detected beat's downsampled window out of its lead,
// as the pipeline does before classifying.
func beatWindows(recs []record, peaks [][]int) ([][]int32, int) {
	var out [][]int32
	window := make([]int32, 200)
	for i, r := range recs {
		for _, pk := range peaks[i] {
			sigdsp.WindowIntInto(window, r.lead, pk, 100)
			ds := make([]int32, 50)
			sigdsp.DownsampleIntInto(ds, window, 4)
			out = append(out, ds)
		}
	}
	return out, len(out)
}

// classifyPerBeat times one head's ClassifyInto, ns per beat. A pass
// classifies every window classifyRounds times: one round is too short to
// time steadily.
func classifyPerBeat(emb *core.Embedded, windows [][]int32) float64 {
	const classifyRounds = 20
	var scr core.Scratch
	scr.Grow(emb)
	return timed(func() {
		for range classifyRounds {
			for _, w := range windows {
				emb.ClassifyInto(w, &scr)
			}
		}
	}) / float64(classifyRounds*len(windows))
}

// batchLayers times the whole-record path over recs: BatchClassifyInto
// alone, and the batch front-end operators (FilterECGInto, DetectInto).
type batchLayers struct {
	batchNs, filterNs, detectNs float64 // per sample
	classifyNs                  [numHeads]float64
	beatsPerSample              float64
}

func replayBatch(ms *modelSet, recs []record, want [numHeads][][]pipeline.BeatResult) (batchLayers, error) {
	var out batchLayers
	samples := 0
	for _, r := range recs {
		samples += len(r.lead)
	}
	var scratch pipeline.BatchScratch
	var batchErr error
	out.batchNs = timed(func() {
		for i, r := range recs {
			h := i % numHeads
			beats, err := pipeline.BatchClassifyInto(context.Background(), ms.emb[h], r.lead, pipeline.Config{}, &scratch)
			if err == nil && !slices.Equal(beats, want[h][i]) {
				err = fmt.Errorf("batch replay of record %d disagrees with the reference", i)
			}
			if err != nil {
				batchErr = err
			}
		}
	}) / float64(samples)
	if batchErr != nil {
		return out, batchErr
	}

	mv := make([][]float64, len(recs))
	filtered := make([][]float64, len(recs))
	for i, r := range recs {
		mv[i] = millivolts(r.lead)
	}
	var fs sigdsp.FilterScratch
	out.filterNs = timed(func() {
		for i := range recs {
			filtered[i] = sigdsp.FilterECGInto(filtered[i], mv[i], baselineCfg, &fs)
		}
	}) / float64(samples)

	peaks := make([][]int, len(recs))
	var ps peak.Scratch
	out.detectNs = timed(func() {
		for i := range recs {
			peaks[i] = append(peaks[i][:0], peak.DetectInto(filtered[i], peakCfg, &ps)...)
		}
	}) / float64(samples)

	windows, nbeats := beatWindows(recs, peaks)
	out.beatsPerSample = float64(nbeats) / float64(samples)
	for h := range numHeads {
		out.classifyNs[h] = classifyPerBeat(ms.emb[h], windows)
	}
	return out, nil
}

// decodeFrames times wire.DecodeFrame over binary units, ns per sample.
func decodeFrames(units [][]byte, samples int) float64 {
	dst := make([]int32, 0, 4096)
	return timed(func() {
		for _, u := range units {
			for data := u; len(data) > 0; {
				dst, data, _ = wire.DecodeFrame(dst[:0], data)
			}
		}
	}) / float64(samples)
}

// decodeLines times wire.ParseChunk over NDJSON lines, ns per sample.
func decodeLines(lines [][]byte, samples int) float64 {
	dst := make([]int32, 0, 4096)
	return timed(func() {
		for _, l := range lines {
			dst, _ = wire.ParseChunk(dst, l)
		}
	}) / float64(samples)
}

// decodeBodies times wire.ParseClassify over JSON bodies, ns per sample.
func decodeBodies(bodies [][]byte, samples int) float64 {
	var dst []int32
	return timed(func() {
		for _, b := range bodies {
			_, dst, _ = wire.ParseClassify(dst[:0], b)
		}
	}) / float64(samples)
}

// encodeStreamBeats times wire.AppendStreamBeat, ns per beat.
func encodeStreamBeats(beats [][]pipeline.BeatResult) float64 {
	buf := make([]byte, 0, 256)
	n := 0
	for _, bs := range beats {
		n += len(bs)
	}
	return timed(func() {
		for _, bs := range beats {
			for _, b := range bs {
				buf = wire.AppendStreamBeat(buf[:0], b.Peak, b.Decision.String(), b.DetectedAt)
			}
		}
	}) / float64(n)
}

// encodeResponses times wire.AppendClassifyResponse, ns per beat.
func encodeResponses(model string, beats [][]pipeline.BeatResult) float64 {
	var buf []byte
	n := 0
	for _, bs := range beats {
		n += len(bs)
	}
	return timed(func() {
		for _, bs := range beats {
			buf = wire.AppendClassifyResponse(buf[:0], model, bs)
		}
	}) / float64(n)
}

func flatten(units [][][]byte) [][]byte {
	var out [][]byte
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

func meanHeads(v [numHeads]float64) float64 { return (v[0] + v[1]) / numHeads }
