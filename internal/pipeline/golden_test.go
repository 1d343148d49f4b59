package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
)

// Golden beat digests: the beats both serving paths emit over fixed
// synthetic records, hashed and pinned. Beat output is meant to be a pure
// function of (model, samples, base sample); these constants hold every
// front-end change to exactly the beats the pinned code produced — a
// rewrite of the streaming operators must keep them without re-pinning.
// A digest changes only with a deliberate change of the front-end's
// arithmetic, and then its new value is a measured decision, not a fix-up.

// goldenRecords are the records the digests cover: two rhythms with
// different PVC burdens and one left bundle branch block subject.
var goldenRecords = []ecgsyn.RecordSpec{
	{Name: "golden-1", Seconds: 60, Seed: 101, PVCRate: 0.15},
	{Name: "golden-2", Seconds: 60, Seed: 202, PVCRate: 0.05},
	{Name: "golden-3", Seconds: 45, Seed: 303, PVCRate: 0.3, LBBB: true},
}

// goldenChunk is the PushChunk size of the streaming digest.
const goldenChunk = 37

var goldenDigests = map[string]string{
	"fuzzy/stream":  "48f802bc7d4364b598e3ceb430de49666fb75b7c32aa95756afc385bd43d2afb",
	"fuzzy/batch":   "b36a116fbfcfe47ba2ba9ae2562fb511d000d470e76416b4c4b4e01f6d9e9b8c",
	"bitemb/stream": "4d4b6246ffdd449ee2076402ac3f043e506eb6e8ecece569014b723a31a7add0",
	"bitemb/batch":  "157c4279ace5cd1710592d50ab57d7c3982a0032f3c631572af57d17ed4a38dd",
}

// beatDigest hashes the beats of every record, in order.
type beatDigest struct{ buf []byte }

func (d *beatDigest) add(beats []BeatResult) {
	for _, b := range beats {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(b.Peak))
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(b.DetectedAt))
		d.buf = append(d.buf, byte(b.Decision))
	}
}

// endRecord separates records, so beats cannot move across a record
// boundary without changing the digest.
func (d *beatDigest) endRecord() { d.buf = append(d.buf, 0xff) }

func (d *beatDigest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

// goldenHeads are the classifier heads the digests are pinned for.
var goldenHeads = []struct {
	name string
	emb  func(testing.TB) *core.Embedded
}{{"fuzzy", testModel}, {"bitemb", testBitembModel}}

// feedFunc streams one lead into a pipeline, handing every batch of beats
// it emits (before Flush) to add.
type feedFunc func(p *Pipeline, lead []int32, add func([]BeatResult))

// chunked feeds a lead through PushChunk in chunks of n samples.
func chunked(n int) feedFunc {
	return func(p *Pipeline, lead []int32, add func([]BeatResult)) {
		for i := 0; i < len(lead); i += n {
			p.PushChunk(lead[i:min(i+n, len(lead))], add)
		}
	}
}

// streamDigest streams every golden record through a fresh pipeline with
// feed, then Flush, and returns the digest and the beat count.
func streamDigest(t *testing.T, emb *core.Embedded, feed feedFunc) (string, int) {
	t.Helper()
	var d beatDigest
	beats := 0
	for _, spec := range goldenRecords {
		lead := ecgsyn.Synthesize(spec).Leads[0]
		pipe, err := New(emb, Config{})
		if err != nil {
			t.Fatal(err)
		}
		feed(pipe, lead, func(b []BeatResult) {
			d.add(b)
			beats += len(b)
		})
		d.add(pipe.Flush())
		d.endRecord()
	}
	return d.sum(), beats
}

func TestGoldenBeatDigests(t *testing.T) {
	for _, head := range goldenHeads {
		emb := head.emb(t)
		streamSum, beats := streamDigest(t, emb, chunked(goldenChunk))
		var batch beatDigest
		for _, spec := range goldenRecords {
			lead := ecgsyn.Synthesize(spec).Leads[0]
			b, err := BatchClassify(context.Background(), emb, lead, Config{})
			if err != nil {
				t.Fatal(err)
			}
			batch.add(b)
			batch.endRecord()
		}
		if beats < 150 {
			t.Fatalf("%s: only %d streamed beats across the golden records", head.name, beats)
		}
		for path, got := range map[string]string{"stream": streamSum, "batch": batch.sum()} {
			key := head.name + "/" + path
			if want := goldenDigests[key]; got != want {
				t.Errorf("%s beat digest %s, pinned %s", key, got, want)
			}
		}
	}
}

// TestGoldenBeatDigestsChunkSplits requires the pinned stream digests
// whatever the chunking: one sample per PushChunk, chunks that straddle
// the front end's block boundaries, chunks of many blocks, the whole
// record at once, and a run that alternates Push with PushChunk. Beats,
// including the sample that finalized each (DetectedAt), must not depend
// on where a chunk or a block ends.
func TestGoldenBeatDigestsChunkSplits(t *testing.T) {
	feeds := map[string]feedFunc{
		"whole": func(p *Pipeline, lead []int32, add func([]BeatResult)) {
			p.PushChunk(lead, add)
		},
		// Push one sample, a short chunk, one sample, then a chunk longer
		// than a block, over and over.
		"alternating": func(p *Pipeline, lead []int32, add func([]BeatResult)) {
			cycle := []int{1, 13, 1, 300}
			for i, c := 0, 0; i < len(lead); c++ {
				n := min(cycle[c%len(cycle)], len(lead)-i)
				if n == 1 {
					add(p.Push(lead[i]))
				} else {
					p.PushChunk(lead[i:i+n], add)
				}
				i += n
			}
		},
	}
	for _, n := range []int{1, 7, 36, 180, 4096} {
		feeds[fmt.Sprintf("chunk%d", n)] = chunked(n)
	}
	for _, head := range goldenHeads {
		emb := head.emb(t)
		want := goldenDigests[head.name+"/stream"]
		for name, feed := range feeds {
			if got, _ := streamDigest(t, emb, feed); got != want {
				t.Errorf("%s/%s: stream beat digest %s, pinned %s", head.name, name, got, want)
			}
		}
	}
}
