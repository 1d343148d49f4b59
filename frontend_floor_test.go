package rpbeat

// The streaming front-end contract, enforced: serving a 30 s record as a
// stream (PushChunk per chunk, then Flush) must cost at most 0.85x the
// batch path (BatchClassifyInto with warm scratch) on the same record, per
// sample. The stream runs the same operators stage-major over fixed blocks,
// its noise suppression on int32 ADC counts with a two-sample carry; the
// batch path runs deque passes over whole float64 buffers. Being cheaper
// than the batch path is what lets /v1/classify move onto the stream, and
// this test is the CI floor under it.

import (
	"context"
	"math"
	"testing"
	"time"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/rng"
)

// maxStreamOverBatch is the highest allowed stream/batch cost ratio.
const maxStreamOverBatch = 0.85

func TestStreamFrontendVsBatchFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the stream/batch timing ratio; CI runs this un-instrumented")
	}
	// A fabricated model: which beats exist is model-independent, and the
	// classifier is well under 1% of either path.
	emb, err := speedFuzzyEmbedded(rng.New(11), 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "floor", Seconds: 30, Seed: 7, PVCRate: 0.1}).Leads[0]
	const chunk = 180 // half a second, rpload's default uplink cadence

	stream := func() {
		p, err := pipeline.New(emb, pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < len(lead); j += chunk {
			p.PushChunk(lead[j:min(j+chunk, len(lead))], nil)
		}
		p.Flush()
	}
	var scratch pipeline.BatchScratch
	batch := func() {
		if _, err := pipeline.BatchClassifyInto(context.Background(), emb, lead, pipeline.Config{}, &scratch); err != nil {
			t.Fatal(err)
		}
	}

	// Best of several rounds per path, interleaved, so a burst of host
	// noise cannot land on one path only.
	const rounds, perRound = 7, 8
	perSample := func(f func()) float64 {
		start := time.Now()
		for i := 0; i < perRound; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / perRound / float64(len(lead))
	}
	stream()
	batch() // warm the scratch
	streamNs, batchNs := math.Inf(1), math.Inf(1)
	for round := 0; round < rounds; round++ {
		streamNs = math.Min(streamNs, perSample(stream))
		batchNs = math.Min(batchNs, perSample(batch))
	}
	ratio := streamNs / batchNs
	t.Logf("stream %.1f ns/sample, batch %.1f ns/sample: %.2fx", streamNs, batchNs, ratio)
	if ratio > maxStreamOverBatch {
		t.Fatalf("stream path %.1f ns/sample is %.2fx the batch path's %.1f ns/sample, want <= %.2fx",
			streamNs, ratio, batchNs, maxStreamOverBatch)
	}
}
