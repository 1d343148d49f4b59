package sigdsp

import (
	"math"
	"testing"

	"rpbeat/internal/testutil"
)

// noisyECGLike builds a deterministic test signal with ECG-like structure:
// sharp spikes on a wandering baseline plus pseudo-noise.
func noisyECGLike(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		t := float64(i)
		v := 0.3 * math.Sin(2*math.Pi*t/700)     // baseline wander
		v += 0.05 * math.Sin(2*math.Pi*t/6.3)    // "mains"
		v += 0.02 * math.Sin(2*math.Pi*t*0.7713) // pseudo-noise
		if i%360 == 180 {
			v += 1.2 // spike train standing in for QRS complexes
		}
		if i%360 == 181 {
			v -= 0.4
		}
		x[i] = v
	}
	return x
}

func TestStreamECGFilterMatchesFilterECG(t *testing.T) {
	x := noisyECGLike(4000)
	cfg := DefaultBaselineConfig(360)
	batch := FilterECG(x, cfg)

	f := NewStreamECGFilter(cfg)
	if f.Delay() <= 0 {
		t.Fatal("no group delay reported")
	}
	var out []float64
	for _, v := range x {
		if y, ok := f.Push(v); ok {
			out = append(out, y)
		}
	}
	if len(out) != len(x)-f.Delay() {
		t.Fatalf("emitted %d samples, want n-delay = %d", len(out), len(x)-f.Delay())
	}
	// The stream is bit-identical from sample 0: the trailing windows over
	// the first samples cover exactly the batch operators' shrunken windows.
	for i, y := range out {
		if y != batch[i] {
			t.Fatalf("sample %d: stream %g != batch %g", i, y, batch[i])
		}
	}
}

func TestStreamDWTMatchesAtrousDWT(t *testing.T) {
	x := noisyECGLike(3000)
	for _, levels := range []int{1, 3, 4, 6} {
		batch := AtrousDWT(x, levels)
		d := NewStreamDWT(levels)
		emitted := 0
		for _, v := range x {
			w, ok := d.Push(v)
			if !ok {
				continue
			}
			for j := 0; j < levels; j++ {
				if w[j] != batch.W[j][emitted] {
					t.Fatalf("levels=%d: W[%d][%d]: stream %g != batch %g",
						levels, j, emitted, w[j], batch.W[j][emitted])
				}
			}
			emitted++
		}
		if emitted != len(x)-d.Delay() {
			t.Fatalf("levels=%d: emitted %d, want n-delay = %d", levels, emitted, len(x)-d.Delay())
		}
	}
}

// Deeper levels must not perturb shallower ones: a 3-level stream must match
// the 4-level batch on its shared scales (the detector relies on this).
func TestStreamDWTPrefixOfDeeperBatch(t *testing.T) {
	x := noisyECGLike(2500)
	batch := AtrousDWT(x, 4)
	d := NewStreamDWT(3)
	emitted := 0
	for _, v := range x {
		w, ok := d.Push(v)
		if !ok {
			continue
		}
		for j := 0; j < 3; j++ {
			if w[j] != batch.W[j][emitted] {
				t.Fatalf("W[%d][%d]: stream %g != 4-level batch %g", j, emitted, w[j], batch.W[j][emitted])
			}
		}
		emitted++
	}
	if emitted == 0 {
		t.Fatal("nothing emitted")
	}
}

// The streaming operators run once per ADC sample on the serving path:
// after construction they must never allocate.
func TestStreamFrontendPushZeroAlloc(t *testing.T) {
	x := noisyECGLike(4096)
	f := NewStreamECGFilter(DefaultBaselineConfig(360))
	d := NewStreamDWT(3)
	i := 0
	testutil.AssertZeroAllocN(t, "StreamECGFilter.Push + StreamDWT.Push (4096 samples per run)", 10, func() {
		for range x {
			y, _ := f.Push(x[i&4095])
			d.Push(y)
			i++
		}
	})
}

func BenchmarkStreamECGFilterPush(b *testing.B) {
	x := noisyECGLike(4096)
	f := NewStreamECGFilter(DefaultBaselineConfig(360))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Push(x[i%len(x)])
	}
}
