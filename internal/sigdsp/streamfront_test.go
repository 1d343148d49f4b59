package sigdsp

import (
	"fmt"
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

	// The stream is bit-identical from sample 0 (the trailing windows over
	// the first samples cover exactly the batch operators' shrunken
	// windows), one Push at a time or in blocks of any split.
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
	check := func(name string, out []float64) {
		t.Helper()
		if len(out) != len(x)-f.Delay() {
			t.Fatalf("%s: emitted %d samples, want n-delay = %d", name, len(out), len(x)-f.Delay())
		}
		for i, y := range out {
			if y != batch[i] {
				t.Fatalf("%s: sample %d: stream %g != batch %g", name, i, y, batch[i])
			}
		}
	}
	check("Push", out)
	for _, split := range []int{2, 7, 180, BlockSize, 1000, len(x)} {
		f := NewStreamECGFilter(cfg)
		dst := make([]float64, split)
		out = out[:0]
		for i := 0; i < len(x); i += split {
			out = append(out, f.Block(dst, x[i:min(i+split, len(x))])...)
		}
		check(fmt.Sprintf("split %d", split), out)
	}
}

// streamDWT runs a StreamDWT over x in blocks of split samples and returns
// the detail signals it emitted, per level.
func streamDWT(d *StreamDWT, levels int, x []float64, split int) [][]float64 {
	out := make([][]float64, levels)
	for i := 0; i < len(x); i += split {
		d.Block(x[i:min(i+split, len(x))])
		for j := range out {
			out[j] = append(out[j], d.Detail(j)...)
		}
	}
	return out
}

func TestStreamDWTMatchesAtrousDWT(t *testing.T) {
	x := noisyECGLike(3000)
	for _, levels := range []int{1, 3, 4, 6} {
		batch := AtrousDWT(x, levels)
		for _, split := range []int{1, 5, 180, BlockSize} {
			d := NewStreamDWT(levels)
			got := streamDWT(d, levels, x, split)
			for j := 0; j < levels; j++ {
				if len(got[j]) != len(x)-d.Delay() {
					t.Fatalf("levels=%d split %d: W[%d] emitted %d, want n-delay = %d",
						levels, split, j, len(got[j]), len(x)-d.Delay())
				}
				for i, v := range got[j] {
					if v != batch.W[j][i] {
						t.Fatalf("levels=%d split %d: W[%d][%d]: stream %g != batch %g",
							levels, split, j, i, v, batch.W[j][i])
					}
				}
			}
		}
	}
}

// Deeper levels must not perturb shallower ones: a 3-level stream must match
// the 4-level batch on its shared scales (the detector relies on this).
func TestStreamDWTPrefixOfDeeperBatch(t *testing.T) {
	x := noisyECGLike(2500)
	batch := AtrousDWT(x, 4)
	got := streamDWT(NewStreamDWT(3), 3, x, 64)
	if len(got[0]) == 0 {
		t.Fatal("nothing emitted")
	}
	for j := 0; j < 3; j++ {
		for i, v := range got[j] {
			if v != batch.W[j][i] {
				t.Fatalf("W[%d][%d]: stream %g != 4-level batch %g", j, i, v, batch.W[j][i])
			}
		}
	}
}

// The streaming operators run on every ADC sample on the serving path:
// after construction they must never allocate, per sample or per block.
func TestStreamFrontendPushZeroAlloc(t *testing.T) {
	x := noisyECGLike(4096)
	xi := make([]int32, len(x))
	for i, v := range x {
		xi[i] = int32(200 * v)
	}
	f := NewStreamECGFilter(DefaultBaselineConfig(360))
	fi := NewStreamFilter[int32](DefaultBaselineConfig(360), 1024, 200)
	d := NewStreamDWT(3)
	y := make([]float64, BlockSize)
	i := 0
	testutil.AssertZeroAllocN(t, "StreamECGFilter.Push + StreamDWT.Block (4096 samples per run)", 10, func() {
		for range x {
			if v, ok := f.Push(x[i&4095]); ok {
				y[0] = v
				d.Block(y[:1])
			}
			i++
		}
	})
	testutil.AssertZeroAllocN(t, "StreamFilter[int32].Block + StreamDWT.Block (4096 samples per run)", 10, func() {
		for j := 0; j < len(xi); j += 180 {
			d.Block(fi.Block(y, xi[j:min(j+180, len(xi))]))
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
