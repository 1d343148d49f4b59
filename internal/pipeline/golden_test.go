package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

func TestGoldenBeatDigests(t *testing.T) {
	for _, head := range []struct {
		name string
		emb  func(testing.TB) *core.Embedded
	}{{"fuzzy", testModel}, {"bitemb", testBitembModel}} {
		emb := head.emb(t)
		var stream, batch beatDigest
		beats := 0
		for _, spec := range goldenRecords {
			lead := ecgsyn.Synthesize(spec).Leads[0]
			pipe, err := New(emb, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(lead); i += goldenChunk {
				pipe.PushChunk(lead[i:min(i+goldenChunk, len(lead))], func(b []BeatResult) {
					stream.add(b)
					beats += len(b)
				})
			}
			stream.add(pipe.Flush())
			stream.endRecord()

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
		for path, d := range map[string]*beatDigest{"stream": &stream, "batch": &batch} {
			key := head.name + "/" + path
			if got, want := d.sum(), goldenDigests[key]; got != want {
				t.Errorf("%s beat digest %s, pinned %s", key, got, want)
			}
		}
	}
}
