package wire

import (
	"encoding/json"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/nfc"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/rng"
)

// The wire benchmarks: the per-chunk decode cost of each uplink codec, and
// of encoding/json as the baseline the fast parser replaced, over the same
// one-second 360-sample chunk. CI runs them as a smoke test (-bench=Wire).

func benchChunkLine(b *testing.B) ([]byte, []int32) {
	b.Helper()
	samples := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "wb", Seconds: 10, Seed: 9}).Leads[0][:360]
	line, err := json.Marshal(chunkBody{Samples: samples})
	if err != nil {
		b.Fatal(err)
	}
	return line, samples
}

func BenchmarkWireParseChunkFast(b *testing.B) {
	line, _ := benchChunkLine(b)
	dst := make([]int32, 0, 512)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = ParseChunk(dst, line)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireParseChunkStdlib(b *testing.B) {
	line, _ := benchChunkLine(b)
	var chunk chunkBody
	chunk.Samples = make([]int32, 0, 512)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chunk.Samples = chunk.Samples[:0]
		if err := json.Unmarshal(line, &chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeFrameChunk(b *testing.B) {
	_, samples := benchChunkLine(b)
	frame, err := AppendFrame(nil, samples)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]int32, 0, 512)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = DecodeFrame(dst[:0], frame)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func makeBeats(n int) []pipeline.BeatResult {
	r := rng.New(12)
	beats := make([]pipeline.BeatResult, n)
	for i := range beats {
		beats[i] = pipeline.BeatResult{
			Peak: i * 300, Decision: nfc.Decision(r.Intn(4)), DetectedAt: i*300 + 60,
		}
	}
	return beats
}

func BenchmarkWireAppendClassifyResponse(b *testing.B) {
	beats := makeBeats(200)
	buf := make([]byte, 0, 16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendClassifyResponse(buf[:0], "default@v1", beats)
	}
}
