package sigdsp

import (
	"testing"
	"testing/quick"

	"rpbeat/internal/rng"
)

// blockSplits are the block lengths the streaming tests cut their inputs
// into: one sample at a time, odd sizes that straddle every warm-up
// boundary, and whole BlockSize blocks.
var blockSplits = []int{1, 2, 7, 36, 180, BlockSize}

// streamBlocks feeds x through a block operator in pieces of `split`
// samples and concatenates what it emits.
func streamBlocks[T Sample](x []T, split int, block func(dst, src []T) []T) []T {
	var out []T
	buf := make([]T, split)
	for i := 0; i < len(x); i += split {
		src := x[i:min(i+split, len(x))]
		out = append(out, block(buf, src)...)
	}
	return out
}

func TestStreamExtremumMatchesTrailingWindow(t *testing.T) {
	r := rng.New(1)
	for _, length := range []int{1, 2, 3, 7, 32} {
		x := randomSignal(r, 300)
		for _, split := range blockSplits {
			gotMax := streamBlocks(x, split, NewStreamMax[float64](length).Block)
			gotMin := streamBlocks(x, split, NewStreamMin[float64](length).Block)
			if len(gotMax) != len(x) || len(gotMin) != len(x) {
				t.Fatalf("len %d split %d: %d/%d outputs for %d samples", length, split, len(gotMax), len(gotMin), len(x))
			}
			for i := range x {
				lo := max(i-length+1, 0)
				wantMax, wantMin := x[lo], x[lo]
				for j := lo + 1; j <= i; j++ {
					if x[j] > wantMax {
						wantMax = x[j]
					}
					if x[j] < wantMin {
						wantMin = x[j]
					}
				}
				if gotMax[i] != wantMax {
					t.Fatalf("len %d split %d sample %d: max %v want %v", length, split, i, gotMax[i], wantMax)
				}
				if gotMin[i] != wantMin {
					t.Fatalf("len %d split %d sample %d: min %v want %v", length, split, i, gotMin[i], wantMin)
				}
			}
		}
	}
}

// The streaming erosion and dilation equal the batch operators on every
// sample they emit, from sample 0 on (the trailing windows over the first
// samples cover exactly the batch's shrunken border windows), for the
// width-3 carry and the segment form alike, in float64 and in int32,
// whatever the block split.
func TestStreamMorphMatchesBatchAfterWarmup(t *testing.T) {
	r := rng.New(2)
	for _, length := range []int{2, 3, 5, 9, 31} {
		x := randomSignal(r, 400)
		// An integer copy on a coarse grid, so ties are common.
		xi := make([]int32, len(x))
		xf := make([]float64, len(x))
		for i, v := range x {
			xi[i] = int32(4 * v)
			xf[i] = float64(xi[i])
		}
		for _, split := range blockSplits {
			for _, wantMax := range []bool{false, true} {
				batch, batchI := Erode(x, length), Erode(xf, length)
				newF, newI := NewStreamErode[float64], NewStreamErode[int32]
				if wantMax {
					batch, batchI = Dilate(x, length), Dilate(xf, length)
					newF, newI = NewStreamDilate[float64], NewStreamDilate[int32]
				}
				s := newF(length)
				got := streamBlocks(x, split, s.Block)
				gotI := streamBlocks(xi, split, newI(length).Block)
				if len(got) != len(x)-s.Delay() || len(gotI) != len(got) {
					t.Fatalf("len %d split %d: stream emitted %d/%d samples, want %d",
						length, split, len(got), len(gotI), len(x)-s.Delay())
				}
				for i := range got {
					if got[i] != batch[i] {
						t.Fatalf("len %d split %d max %v: sample %d: stream %v batch %v",
							length, split, wantMax, i, got[i], batch[i])
					}
					if float64(gotI[i]) != batchI[i] {
						t.Fatalf("len %d split %d max %v: int32 sample %d: stream %v batch %v",
							length, split, wantMax, i, gotI[i], batchI[i])
					}
				}
			}
		}
	}
}

func TestStreamMorphPropertyEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		length := 3 + r.Intn(20)
		split := 1 + r.Intn(2*BlockSize)
		x := randomSignal(r, 100+r.Intn(100))
		batch := Erode(x, length)
		got := streamBlocks(x, split, NewStreamErode[float64](length).Block)
		for i := range got {
			if got[i] != batch[i] {
				return false
			}
		}
		return len(got) == len(x)-(length-1-length/2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStreamExtremumBoundedMemory(t *testing.T) {
	s := NewStreamMax[float64](16)
	seg := &s.seg[0]
	r := rng.New(9)
	x := randomSignal(r, 10000)
	buf := make([]float64, BlockSize)
	for i := 0; i < len(x); i += 37 {
		s.Block(buf, x[i:min(i+37, len(x))])
		if len(s.seg) != 17 || s.p >= 16 {
			t.Fatalf("state of a 16-sample window: %d stored samples, position %d", len(s.seg), s.p)
		}
	}
	if &s.seg[0] != seg {
		t.Fatal("segment buffer was reallocated; Block must not allocate")
	}
}
