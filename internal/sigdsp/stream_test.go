package sigdsp

import (
	"testing"
	"testing/quick"

	"rpbeat/internal/rng"
)

func TestStreamExtremumMatchesTrailingWindow(t *testing.T) {
	r := rng.New(1)
	for _, length := range []int{1, 2, 3, 7, 32} {
		x := randomSignal(r, 300)
		sMax := NewStreamMax(length)
		sMin := NewStreamMin(length)
		for i := range x {
			gotMax := sMax.Push(x[i])
			gotMin := sMin.Push(x[i])
			lo := i - length + 1
			if lo < 0 {
				lo = 0
			}
			wantMax, wantMin := x[lo], x[lo]
			for j := lo + 1; j <= i; j++ {
				if x[j] > wantMax {
					wantMax = x[j]
				}
				if x[j] < wantMin {
					wantMin = x[j]
				}
			}
			if gotMax != wantMax {
				t.Fatalf("len %d sample %d: max %v want %v", length, i, gotMax, wantMax)
			}
			if gotMin != wantMin {
				t.Fatalf("len %d sample %d: min %v want %v", length, i, gotMin, wantMin)
			}
		}
	}
}

func TestStreamMorphMatchesBatchAfterWarmup(t *testing.T) {
	r := rng.New(2)
	for _, length := range []int{3, 5, 9, 31} {
		x := randomSignal(r, 400)
		batchE := Erode(x, length)
		batchD := Dilate(x, length)
		sm := NewStreamErode(length)
		sd := NewStreamDilate(length)
		var gotE, gotD []float64
		for _, v := range x {
			if o, ok := sm.Push(v); ok {
				gotE = append(gotE, o)
			}
			if o, ok := sd.Push(v); ok {
				gotD = append(gotD, o)
			}
		}
		// Output i corresponds to input i; the stream cannot produce the
		// final Delay() samples (their windows need future input) and its
		// first Delay() outputs use a trailing (not centered) window.
		warm := length // covers the left-border semantic difference
		if len(gotE) != len(x)-sm.Delay() {
			t.Fatalf("len %d: stream emitted %d samples, want %d", length, len(gotE), len(x)-sm.Delay())
		}
		for i := warm; i < len(gotE); i++ {
			if gotE[i] != batchE[i] {
				t.Fatalf("len %d: erosion sample %d: stream %v batch %v", length, i, gotE[i], batchE[i])
			}
			if gotD[i] != batchD[i] {
				t.Fatalf("len %d: dilation sample %d: stream %v batch %v", length, i, gotD[i], batchD[i])
			}
		}
	}
}

func TestStreamMorphPropertyEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		length := 3 + r.Intn(20)
		x := randomSignal(r, 100+r.Intn(100))
		batch := Erode(x, length)
		s := NewStreamErode(length)
		var got []float64
		for _, v := range x {
			if o, ok := s.Push(v); ok {
				got = append(got, o)
			}
		}
		for i := length; i < len(got); i++ {
			if got[i] != batch[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStreamExtremumBoundedMemory(t *testing.T) {
	s := NewStreamMax(16)
	ring := &s.ring[0]
	r := rng.New(9)
	for i := 0; i < 10000; i++ {
		s.Push(r.Norm())
		if n := s.tail - s.head; n > 16 {
			t.Fatalf("deque holds %d entries for a 16-sample window", n)
		}
	}
	if &s.ring[0] != ring {
		t.Fatal("deque ring was reallocated; Push must not allocate")
	}
}
