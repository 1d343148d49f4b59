package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"rpbeat/internal/bitemb"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/load"
	"rpbeat/internal/nfc"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
)

// The two serving heads every workload pins its streams and requests to.
const (
	headFuzzy  = 0
	headBitemb = 1
	numHeads   = 2
)

// pvcRate is the share of premature ventricular beats ecgsyn draws.
const pvcRate = 0.1

// modelSet is the serving models as set-up receives them: binary codec
// bytes, decoded into a fresh catalog on every set-up. The quantized forms
// (emb) come from decoding the same bytes, so the in-process references run
// exactly the tables the server runs.
type modelSet struct {
	names [numHeads]string
	blobs [numHeads][]byte
	refs  [numHeads]string // the name@vN each name resolves to after set-up
	emb   [numHeads]*core.Embedded
}

// buildModels fabricates the two heads deterministically, the way
// cmd/rpbench does: a random projection with plausible head parameters,
// no training. Serving cost does not depend on how good the model is.
func buildModels() (*modelSet, error) {
	r := rng.New(6)
	ms := &modelSet{names: [numHeads]string{"fuzzy", "bitemb"}}
	models := [numHeads]*core.Model{fuzzyModel(r), bitembModel(r)}
	cat := catalog.New()
	for i, m := range models {
		var buf bytes.Buffer
		if err := m.WriteBinary(&buf); err != nil {
			return nil, fmt.Errorf("encoding %s model: %w", ms.names[i], err)
		}
		ms.blobs[i] = buf.Bytes()
		entry, ref, err := putBlob(cat, ms.names[i], ms.blobs[i])
		if err != nil {
			return nil, err
		}
		ms.refs[i], ms.emb[i] = ref, entry.Emb
	}
	return ms, nil
}

// putBlob decodes model bytes into the catalog under name.
func putBlob(cat *catalog.Catalog, name string, blob []byte) (*catalog.Entry, string, error) {
	m, err := core.Decode(blob)
	if err != nil {
		return nil, "", fmt.Errorf("decoding %s model: %w", name, err)
	}
	man, err := cat.Put(name, m, nil)
	if err != nil {
		return nil, "", fmt.Errorf("registering %s model: %w", name, err)
	}
	entry, err := cat.Snapshot().Resolve(man.Ref())
	if err != nil {
		return nil, "", err
	}
	return entry, man.Ref(), nil
}

// newCatalog is the catalog half of every set-up: decode both heads.
func (ms *modelSet) newCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	for i := range ms.blobs {
		if _, _, err := putBlob(cat, ms.names[i], ms.blobs[i]); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// fuzzyModel is a k=8, d=50 fuzzy head over 200-sample windows at
// downsample 4 (the paper's configuration).
func fuzzyModel(r *rng.Rand) *core.Model {
	const k, d = 8, 50
	mf := nfc.NewParams(k)
	for i := range mf.C {
		mf.C[i] = float64(r.Intn(4000) - 2000)
		mf.Sigma[i] = 200 + float64(r.Intn(800))
	}
	return &core.Model{
		K: k, D: d, Downsample: 4,
		P:  rp.NewRandom(r, k, d),
		MF: mf, AlphaTrain: 0.1, MinARR: 0.97,
	}
}

// bitembModel is the binary-embedding head at the same dimensions.
func bitembModel(r *rng.Rand) *core.Model {
	const k, d = 8, 50
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
	return &core.Model{
		Kind: core.KindBitemb, K: k, D: d, Downsample: 4,
		P:   rp.NewVerySparse(r, k, d),
		Bit: bp, AlphaTrain: 0.1, MinARR: 0.97,
	}
}

// uploadBlobs fabricates n distinct fuzzy models for the catalog-write side
// load; distinct bytes, so every upload creates a new version.
func uploadBlobs(n int) ([][]byte, error) {
	r := rng.New(7)
	out := make([][]byte, n)
	for i := range out {
		var buf bytes.Buffer
		if err := fuzzyModel(r).WriteBinary(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// record is one synthesized patient lead with its annotation counts.
type record struct {
	lead         []int32
	annotated    int // beats ecgsyn placed
	annotatedPVC int // of which premature ventricular
}

// synthRecords synthesizes n patient leads from the workload seed through
// load.PatientSeed. Record i lasts minSec plus a seed-drawn share of
// spreadSec seconds, so streams sharing a fleet end at different times.
func synthRecords(seed uint64, n int, minSec, spreadSec float64) []record {
	out := make([]record, n)
	for i := range out {
		ps := load.PatientSeed(seed, i)
		sec := minSec + spreadSec*float64(ps%1024)/1023
		rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{
			Name: fmt.Sprintf("patient-%d", i), Seconds: sec, Seed: ps, PVCRate: pvcRate,
		})
		out[i].lead = rec.Leads[0]
		out[i].annotated = len(rec.Ann)
		for _, a := range rec.Ann {
			if a.Class == ecgsyn.ClassV {
				out[i].annotatedPVC++
			}
		}
	}
	return out
}

// streamReference is what a lossless stream of lead must deliver under emb:
// the pipeline's own PushChunk + Flush, in process, from the same commit.
func streamReference(emb *core.Embedded, lead []int32) ([]pipeline.BeatResult, error) {
	p, err := pipeline.New(emb, pipeline.Config{})
	if err != nil {
		return nil, err
	}
	var out []pipeline.BeatResult
	p.PushChunk(lead, func(b []pipeline.BeatResult) { out = append(out, b...) })
	return append(out, p.Flush()...), nil
}

// batchReference is what /v1/classify must answer for lead under emb.
func batchReference(emb *core.Embedded, lead []int32) ([]pipeline.BeatResult, error) {
	return pipeline.BatchClassify(context.Background(), emb, lead, pipeline.Config{})
}

// checkOracle holds a stream reference to the model-independent beat oracle
// (load.ExpectedBeats): every beat the front-end finds, in order.
func checkOracle(ref []pipeline.BeatResult, lead []int32) error {
	want := load.ExpectedBeats(lead)
	got := make([]int, len(ref))
	for i, b := range ref {
		got[i] = b.Peak
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("stream reference finds %d beats, oracle %d (first difference near %d)",
			len(got), len(want), firstDiff(got, want))
	}
	return nil
}

func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// inputStats are the exact input properties a workload reports.
type inputStats struct {
	Records      int     `json:"records"`
	Samples      int     `json:"samples"`
	Beats        int     `json:"beats"` // detected by the reference
	BeatsPerKS   float64 `json:"beats_per_ksample"`
	PVCShare     float64 `json:"pvc_share"` // of annotated beats
	UplinkBinary float64 `json:"uplink_bytes_per_sample_binary"`
	UplinkJSON   float64 `json:"uplink_bytes_per_sample_json"`
}

// describe counts the properties of recs with their detected beats.
func describe(recs []record, detected func(i int) int) inputStats {
	var s inputStats
	var ann, pvc int
	for i, r := range recs {
		s.Samples += len(r.lead)
		s.Beats += detected(i)
		ann += r.annotated
		pvc += r.annotatedPVC
	}
	s.Records = len(recs)
	s.BeatsPerKS = 1000 * float64(s.Beats) / float64(s.Samples)
	s.PVCShare = float64(pvc) / float64(ann)
	return s
}
