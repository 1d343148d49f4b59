package load

import (
	"math"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/peak"
	"rpbeat/internal/sigdsp"
)

// ExpectedBeats converts counts exactly like the serving pipeline, so it
// must not wrap either: on a record moved next to MinInt32 (with a run
// saturated at MinInt32 itself), where an int32 subtraction of the 1024
// zero offset wraps about half the samples to large positive counts, its
// beats must be those of the front end fed exact differences.
func TestExpectedBeatsADCExtremes(t *testing.T) {
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "adc", Seconds: 60, Seed: 17, PVCRate: 0.1}).Leads[0]
	for i, v := range lead {
		lead[i] = int32(int64(v) + math.MinInt32)
	}
	for i := 9000; i < 9300; i++ {
		lead[i] = math.MinInt32
	}

	filter := sigdsp.NewStreamECGFilter(sigdsp.DefaultBaselineConfig(ecgsyn.Fs))
	det, err := peak.NewStreamDetector(peak.Config{Fs: ecgsyn.Fs, SearchBackOff: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, v := range lead {
		if y, ok := filter.Push(float64(int64(v)-ecgsyn.Baseline) / ecgsyn.Gain); ok {
			want = append(want, det.Push(y)...)
		}
	}
	want = append(want, det.Flush()...)
	if len(want) < 40 {
		t.Fatalf("the reference found only %d beats", len(want))
	}

	got := ExpectedBeats(lead)
	if len(got) != len(want) {
		t.Fatalf("ExpectedBeats found %d beats, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("beat %d at %d, reference %d", i, got[i], want[i])
		}
	}
}
