package peak

import (
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/sigdsp"
	"rpbeat/internal/testutil"
)

// filteredRecord synthesizes a record and runs the batch front end, giving
// both detectors the identical filtered lead.
func filteredRecord(seconds float64, seed uint64, pvc float64) []float64 {
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "sd", Seconds: seconds, Seed: seed, PVCRate: pvc})
	return sigdsp.FilterECG(rec.LeadMillivolts(0), sigdsp.DefaultBaselineConfig(rec.Fs))
}

func TestStreamDetectorMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		pvc  float64
	}{{1, 0}, {2, 0.15}, {7, 0.3}} {
		x := filteredRecord(180, tc.seed, tc.pvc)
		cfg := Config{Fs: 360, SearchBackOff: true}
		batch := Detect(x, cfg)

		d, err := NewStreamDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stream []int
		for _, v := range x {
			stream = append(stream, d.Push(v)...)
		}
		stream = append(stream, d.Flush()...)

		// Batch thresholds near the record end come from windows the stream
		// only completes at Flush with fewer samples (the wavelet tail is
		// never produced), so parity is asserted away from the right border.
		tail := len(x) - d.Delay()
		want := keepBefore(batch, tail)
		got := keepBefore(stream, tail)
		if len(want) == 0 {
			t.Fatalf("seed %d: batch found no peaks before the tail margin", tc.seed)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: stream found %d peaks, batch %d", tc.seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: peak %d at %d, batch at %d", tc.seed, i, got[i], want[i])
			}
		}
	}
}

func keepBefore(peaks []int, limit int) []int {
	out := peaks[:0:0]
	for _, p := range peaks {
		if p < limit {
			out = append(out, p)
		}
	}
	return out
}

func TestStreamDetectorPeaksAreOrderedAndFinal(t *testing.T) {
	x := filteredRecord(120, 3, 0.1)
	d, err := NewStreamDetector(Config{Fs: 360, SearchBackOff: true})
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for n, v := range x {
		for _, p := range d.Push(v) {
			if p <= last {
				t.Fatalf("peak %d emitted after %d (out of order)", p, last)
			}
			if lat := n - p; lat > d.Delay() {
				t.Fatalf("peak %d finalized %d samples late (> Delay %d)", p, lat, d.Delay())
			}
			last = p
		}
	}
}

func TestStreamDetectorRequiresSearchBackOff(t *testing.T) {
	if _, err := NewStreamDetector(Config{Fs: 360}); err == nil {
		t.Fatal("expected an error when search-back is enabled")
	}
}

// Push runs once per sample on the serving path; after the first
// threshold windows it must never allocate (peaks are emitted into a
// reused slice).
func TestStreamDetectorPushZeroAlloc(t *testing.T) {
	x := filteredRecord(20, 9, 0.1)
	d, err := NewStreamDetector(Config{Fs: 360, SearchBackOff: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		d.Push(v) // grow the emit slice to its working size
	}
	testutil.AssertZeroAllocN(t, "StreamDetector.Push (a 20 s record per run)", 10, func() {
		for _, v := range x {
			d.Push(v)
		}
	})
}

func BenchmarkStreamDetectorPush(b *testing.B) {
	x := filteredRecord(60, 9, 0.1)
	d, _ := NewStreamDetector(Config{Fs: 360, SearchBackOff: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(x[i%len(x)])
	}
}
