package rpbeat

// The binary-head kernel contract, enforced: at the paper geometry (k=8
// coefficients over 50-sample windows at 90 Hz) the packed 1-bit classifier
// must beat the fuzzy integer kernel by at least 3x per beat, with zero
// allocations on both sides. BenchmarkKernel_IntegerClassifierPerBeat and
// BenchmarkKernel_BitembClassifierPerBeat time the same pair on a trained
// model; this test is the CI floor under them.

import (
	"testing"

	"rpbeat/internal/bitemb"
	"rpbeat/internal/core"
	"rpbeat/internal/fixp"
	"rpbeat/internal/nfc"
	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
)

// Fabricated models: classification cost is data-independent (branch-free
// kernels), so random parameters measure the same kernel as trained ones
// while keeping these tests training-free.

func speedFuzzyEmbedded(r *rng.Rand, k, d int) (*core.Embedded, error) {
	mf := nfc.NewParams(k)
	for i := range mf.C {
		mf.C[i] = float64(r.Intn(4000) - 2000)
		mf.Sigma[i] = 200 + float64(r.Intn(800))
	}
	m := &core.Model{
		K: k, D: d, Downsample: 4,
		P: rp.NewRandom(r, k, d), MF: mf, AlphaTrain: 0.1, MinARR: 0.97,
	}
	return m.Quantize(fixp.MFLinear)
}

func speedBitembEmbedded(r *rng.Rand, k, d int) (*core.Embedded, error) {
	bp := &bitemb.Params{K: k, Thresholds: make([]int32, k)}
	for j := range bp.Thresholds {
		bp.Thresholds[j] = int32(r.Intn(4000) - 2000)
	}
	for l := range bp.Protos {
		bp.Protos[l] = make([]uint64, bitemb.Words(k))
		for j := 0; j < k; j++ {
			if r.Intn(2) == 1 {
				bp.Protos[l][j/64] |= 1 << uint(j&63)
			}
		}
		bp.Radii[l] = uint16(k)
	}
	m := &core.Model{
		Kind: core.KindBitemb, K: k, D: d, Downsample: 4,
		P: rp.NewVerySparse(r, k, d), Bit: bp, AlphaTrain: 0.1, MinARR: 0.97,
	}
	return m.Quantize(fixp.MFLinear)
}

func TestBitembKernelSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the kernel timing ratio; CI runs this un-instrumented")
	}
	r := rng.New(7)
	const k, d = 8, 50
	fuzzy, err := speedFuzzyEmbedded(r, k, d)
	if err != nil {
		t.Fatal(err)
	}
	bit, err := speedBitembEmbedded(r, k, d)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]int32, d)
	for i := range w {
		w[i] = int32(r.Intn(2000) - 1000)
	}
	perBeat := func(emb *core.Embedded) func(b *testing.B) {
		s := core.NewScratch(emb)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = emb.ClassifyInto(w, s)
			}
		}
	}

	// Best of three rounds per kernel, the rounds interleaved: the floor is
	// about relative kernel cost, not scheduler noise, and a burst of host
	// load must not land on one kernel's rounds only.
	fuzzyNs, bitNs := 1e18, 1e18
	var fuzzyAllocs, bitAllocs int64
	kernels := []struct {
		f      func(b *testing.B)
		ns     *float64
		allocs *int64
	}{{perBeat(fuzzy), &fuzzyNs, &fuzzyAllocs}, {perBeat(bit), &bitNs, &bitAllocs}}
	for round := 0; round < 3; round++ {
		for _, k := range kernels {
			res := testing.Benchmark(k.f)
			*k.ns = min(*k.ns, float64(res.T.Nanoseconds())/float64(res.N))
			*k.allocs = res.AllocsPerOp()
		}
	}
	if fuzzyAllocs != 0 || bitAllocs != 0 {
		t.Fatalf("per-beat kernels must be allocation-free: fuzzy %d, bitemb %d allocs/op",
			fuzzyAllocs, bitAllocs)
	}
	ratio := fuzzyNs / bitNs
	t.Logf("fuzzy %.1f ns/beat, bitemb %.1f ns/beat: %.1fx", fuzzyNs, bitNs, ratio)
	if ratio < 3 {
		t.Fatalf("bitemb kernel %.1f ns/beat is only %.2fx the fuzzy kernel's %.1f ns/beat, want >= 3x",
			bitNs, ratio, fuzzyNs)
	}
}

// BenchmarkKernel_BitembPack8 is the binary head's sign-extraction step
// alone at k=8: one projected beat packed into its 1-bit code, the part of
// the bitemb kernel that replaces the fuzzy head's grade evaluation.
func BenchmarkKernel_BitembPack8(b *testing.B) {
	r := rng.New(2)
	emb, err := speedBitembEmbedded(r, 8, 50)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]int32, 50)
	for i := range w {
		w[i] = int32(r.Intn(2048)) - 1024
	}
	u := make([]int32, emb.K)
	emb.ProjectIntInto(w, u)
	code := make([]uint64, bitemb.Words(emb.K))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb.Bit.PackInto(u, code)
	}
}
