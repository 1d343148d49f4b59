package pipeline

import (
	"context"
	"math"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/peak"
	"rpbeat/internal/sigdsp"
)

// The wire layer accepts the full int32 range, so the millivolt conversion
// must not wrap near either end of it: MinInt32 - 1024 in int32 arithmetic
// is a large positive count. Two records are moved next to the ends of the
// range, each with a saturated run pinned at the extreme itself, and
// classified at a zero offset that pushes their differences past it.
func TestPipelineADCExtremes(t *testing.T) {
	emb := testModel(t)
	base := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "adc", Seconds: 60, Seed: 17, PVCRate: 0.1}).Leads[0]
	for _, tc := range []struct {
		name string
		cfg  Config
		// shift moves the record, extreme fills the saturated run.
		shift, extreme int64
	}{
		// Default geometry (zero 1024): every sample below the zero wraps
		// in int32 arithmetic.
		{"min", Config{}, math.MinInt32, math.MinInt32},
		// A negative zero offset: every sample above it wraps.
		{"max", Config{Gain: ecgsyn.Gain, ADCZero: -ecgsyn.Baseline},
			math.MaxInt32 - 2*ecgsyn.Baseline, math.MaxInt32},
	} {
		lead := make([]int32, len(base))
		for i, v := range base {
			lead[i] = int32(int64(v) + tc.shift)
		}
		for i := 9000; i < 9300; i++ {
			lead[i] = int32(tc.extreme)
		}
		c := tc.cfg.withDefaults()

		// No sample may flip sign in the conversion.
		zero := float64(c.ADCZero)
		wrapped := 0
		for _, v := range lead {
			d := int64(v) - int64(c.ADCZero)
			if mv := millivolts(v, zero, c.Gain); (mv < 0) != (d < 0) {
				t.Fatalf("%s: sample %d converts to %g mV, sign of %d", tc.name, v, mv, d)
			}
			if d != int64(v-c.ADCZero) {
				wrapped++
			}
		}
		if wrapped < len(lead)/4 {
			t.Fatalf("%s: only %d of %d samples would wrap in int32; the case does not test the wrap",
				tc.name, wrapped, len(lead))
		}

		// Reference: the streaming front end fed exact int64 differences.
		filter := sigdsp.NewStreamECGFilter(c.Baseline)
		det, err := peak.NewStreamDetector(c.Peak)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, v := range lead {
			if y, ok := filter.Push(float64(int64(v)-int64(c.ADCZero)) / c.Gain); ok {
				want = append(want, det.Push(y)...)
			}
		}
		want = append(want, det.Flush()...)
		if len(want) < 40 {
			t.Fatalf("%s: the reference found only %d beats", tc.name, len(want))
		}

		pipe, err := New(emb, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stream []BeatResult
		for i := 0; i < len(lead); i += 360 {
			pipe.PushChunk(lead[i:min(i+360, len(lead))], func(b []BeatResult) {
				stream = append(stream, b...)
			})
		}
		stream = append(stream, pipe.Flush()...)
		if len(stream) != len(want) {
			t.Fatalf("%s: stream emitted %d beats, reference %d", tc.name, len(stream), len(want))
		}
		for i, b := range stream {
			if b.Peak != want[i] {
				t.Fatalf("%s: beat %d at %d, reference %d", tc.name, i, b.Peak, want[i])
			}
		}
		batch, err := BatchClassify(context.Background(), emb, lead, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		limit := len(lead) - pipe.Delay()
		got, ref := keepBefore(stream, limit), keepBefore(batch, limit)
		if len(got) != len(ref) {
			t.Fatalf("%s: stream %d beats, batch %d before the tail margin", tc.name, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Peak != ref[i].Peak || got[i].Decision != ref[i].Decision {
				t.Fatalf("%s: beat %d: stream (%d,%v) != batch (%d,%v)",
					tc.name, i, got[i].Peak, got[i].Decision, ref[i].Peak, ref[i].Decision)
			}
		}
	}
}
