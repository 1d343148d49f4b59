package rpbeat

// One benchmark per table and figure of the paper's evaluation section,
// plus micro-benchmarks of the per-beat and per-second kernels the run-time
// analysis (Table III) models. The experiment benchmarks regenerate their
// result at a reduced dataset scale and GA budget so `go test -bench=.`
// terminates in minutes; `cmd/rpbench -experiment` runs the same drivers at
// full scale. The kernel benchmarks are the go test homes of the kernel rows
// of the historical BENCH_<n>.json snapshots (see BENCHMARKS.md).

import (
	"context"
	"sync"
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/experiments"
	"rpbeat/internal/fixp"
	"rpbeat/internal/peak"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/platform"
	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
	"rpbeat/internal/sigdsp"
	"rpbeat/internal/wbsn"
)

// benchOptions keeps experiment benchmarks tractable.
func benchOptions() experiments.Options {
	return experiments.Options{
		Seed:        99,
		Scale:       0.05,
		PopSize:     8,
		Generations: 6,
		SCGIters:    80,
		MinARR:      0.97,
	}
}

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchModel  *core.Model
	benchEmb    *core.Embedded
	benchDS     *beatset.Dataset
)

func benchSetup(b *testing.B) (*experiments.Runner, *core.Model, *core.Embedded, *beatset.Dataset) {
	b.Helper()
	var err error
	benchOnce.Do(func() {
		benchRunner = experiments.NewRunner(benchOptions())
		benchDS, err = benchRunner.Dataset()
		if err != nil {
			return
		}
		benchModel, _, err = benchRunner.Model(8, 4)
		if err != nil {
			return
		}
		benchEmb, err = benchModel.Quantize(fixp.MFLinear)
	})
	if err != nil || benchEmb == nil {
		b.Fatalf("benchmark setup failed: %v", err)
	}
	return benchRunner, benchModel, benchEmb, benchDS
}

// --- Table I ---

func BenchmarkTableI_DatasetAssembly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := beatset.Build(beatset.Config{Seed: uint64(i + 1), Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Beats) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// --- Table II: one benchmark per coefficient count, full two-step training
// (GA x SCG) plus test-set evaluation for all three rows. ---

func benchmarkTableII(b *testing.B, k int) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		res, err := r.TableII([]int{k})
		if err != nil {
			b.Fatal(err)
		}
		if res.NDRPC[0] <= 0 {
			b.Fatal("degenerate NDR")
		}
	}
}

func BenchmarkTableII_Coefficients8(b *testing.B)  { benchmarkTableII(b, 8) }
func BenchmarkTableII_Coefficients16(b *testing.B) { benchmarkTableII(b, 16) }
func BenchmarkTableII_Coefficients32(b *testing.B) { benchmarkTableII(b, 32) }

// --- Figure 4 ---

func BenchmarkFigure4_MFShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure4(); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// --- Figure 5 ---

func BenchmarkFigure5_ParetoFronts(b *testing.B) {
	r, _, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Linear) == 0 {
			b.Fatal("empty front")
		}
	}
}

// --- Table III ---

func BenchmarkTableIII_CodeSizeAndDutyCycle(b *testing.B) {
	r, _, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// --- Sec. IV-E energy ---

func BenchmarkEnergy_Savings(b *testing.B) {
	r, _, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Energy()
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.RadioReduction <= 0 {
			b.Fatal("no saving computed")
		}
	}
}

// --- Ablations ---

func BenchmarkAblation_DownsampleSweep(b *testing.B) {
	r, _, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.DownsampleSweep([]int{4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the node kernels (the quantities the Table III
// cost model prices) ---

// projector is the integer projection kernel every matrix representation
// implements.
type projector interface{ ProjectIntInto(v, u []int32) }

// benchmarkProjection times one k×50 projection of a 50-sample window in
// the representation build makes from the random ±1 matrix.
func benchmarkProjection(b *testing.B, k int, build func(*rp.Matrix) projector) {
	r := rng.New(1)
	m := build(rp.NewRandom(r, k, 50))
	v := make([]int32, 50)
	for i := range v {
		v[i] = int32(r.Intn(2048))
	}
	u := make([]int32, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProjectIntInto(v, u)
	}
}

func packed(m *rp.Matrix) projector { return rp.Pack(m) }
func dense(m *rp.Matrix) projector  { return m }
func sparse(m *rp.Matrix) projector { return rp.NewSparse(m) }

// The paper configuration (k=8) and the largest Table II one (k=32).
func BenchmarkKernel_ProjectionPacked_8x50(b *testing.B)  { benchmarkProjection(b, 8, packed) }
func BenchmarkKernel_ProjectionDense_8x50(b *testing.B)   { benchmarkProjection(b, 8, dense) }
func BenchmarkKernel_ProjectionSparse_8x50(b *testing.B)  { benchmarkProjection(b, 8, sparse) }
func BenchmarkKernel_ProjectionPacked_32x50(b *testing.B) { benchmarkProjection(b, 32, packed) }
func BenchmarkKernel_ProjectionDense_32x50(b *testing.B)  { benchmarkProjection(b, 32, dense) }
func BenchmarkKernel_ProjectionSparse_32x50(b *testing.B) { benchmarkProjection(b, 32, sparse) }

// BenchmarkKernel_PipelinePushSteadyState measures the per-sample cost of
// the full online pipeline after warm-up. allocs/op must be 0 — the
// invariant TestPipelinePushZeroAlloc enforces and the Engine's
// many-streams story depends on.
func BenchmarkKernel_PipelinePushSteadyState(b *testing.B) {
	_, _, emb, _ := benchSetup(b)
	pipe, err := pipeline.New(emb, pipeline.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "push", Seconds: 60, Seed: 6, PVCRate: 0.1})
	lead := rec.Leads[0]
	for _, v := range lead {
		pipe.Push(v)
	}
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Push(lead[next])
		next++
		if next == len(lead) {
			next = 0
		}
	}
}

// BenchmarkKernel_BatchClassify30s is the /v1/classify serving shape: one
// whole record through the batch reference path with pooled scratch.
func BenchmarkKernel_BatchClassify30s(b *testing.B) {
	_, _, emb, _ := benchSetup(b)
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "batch", Seconds: 30, Seed: 7, PVCRate: 0.1})
	lead := rec.Leads[0]
	var scratch pipeline.BatchScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.BatchClassifyInto(context.Background(), emb, lead, pipeline.Config{}, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_IntegerClassifierPerBeat(b *testing.B) {
	_, _, emb, ds := benchSetup(b)
	w := ds.IntWindow(ds.Test[0], emb.Downsample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = emb.Classify(w)
	}
}

// BenchmarkKernel_BitembClassifierPerBeat is the binary head on the same
// window: fused very-sparse projection + threshold + popcount, one scratch
// reused across beats (the pipeline's calling convention).
func BenchmarkKernel_BitembClassifierPerBeat(b *testing.B) {
	r, _, _, ds := benchSetup(b)
	bm, _, err := r.BitembModel(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	emb, err := bm.Quantize(fixp.MFLinear)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewScratch(emb)
	w := ds.IntWindow(ds.Test[0], emb.Downsample)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = emb.ClassifyInto(w, s)
	}
}

func BenchmarkKernel_FloatClassifierPerBeat(b *testing.B) {
	_, m, _, ds := benchSetup(b)
	w := ds.FloatWindow(ds.Test[0], m.Downsample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Classify(w, m.AlphaTrain)
	}
}

func BenchmarkKernel_FrontEnd30s(b *testing.B) {
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "b", Seconds: 30, Seed: 4})
	mv := rec.LeadMillivolts(0)
	cfg := sigdsp.DefaultBaselineConfig(rec.Fs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filtered := sigdsp.FilterECG(mv, cfg)
		_ = peak.Detect(filtered, peak.Config{Fs: rec.Fs})
	}
}

func BenchmarkKernel_FullNodePipeline30s(b *testing.B) {
	_, _, emb, _ := benchSetup(b)
	node, err := wbsn.NewNode(emb)
	if err != nil {
		b.Fatal(err)
	}
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "b", Seconds: 30, Seed: 5, PVCRate: 0.1})
	leads := make([][]int32, ecgsyn.NumLeads)
	for l := range leads {
		leads[l] = rec.Leads[l]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.Process(leads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_PlatformCostModel(b *testing.B) {
	p := platform.SystemParams{
		Fs: 360, BeatsPerSec: 1.2, ActivationRate: 0.22,
		K: 8, D: 50, ClassifierData: 784, Leads: 3, Model: platform.Icyflex(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := platform.TableIII(p); len(rows) != 4 {
			b.Fatal("bad rows")
		}
	}
}
