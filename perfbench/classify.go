package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

// classifyBatch drives serve's /v1/classify directly on loopback with
// whole 5-minute records over one connection. Request j carries record j
// mod classifyRecords, alternates JSON body and binary frames, and
// alternates the heads through ?model= every two requests. (With a second
// connection, a second request's working set of several MB was resident or
// not depending on when requests happened to overlap.)
type classifyBatch struct {
	models *modelSet
	recs   []record
	bodies [numCodecs][][]byte // per codec, per record
	want   [numHeads][][]byte  // per head, per record: the exact response body
	beats  [numHeads][][]pipeline.BeatResult
	stats  inputStats
}

const (
	// cycle is how many consecutive requests cover every request kind.
	cycle = numCodecs * numHeads

	classifyRecords = 4
	classifySeconds = 300
)

var bodyTypes = [numCodecs]string{wire.ContentTypeSamples, wire.ContentTypeJSON}

func newClassifyBatch(seed uint64) (*classifyBatch, error) {
	ms, err := buildModels()
	if err != nil {
		return nil, err
	}
	b := &classifyBatch{models: ms, recs: synthRecords(seed, classifyRecords, classifySeconds, 0)}
	var bytesOf [numCodecs]int
	for i, r := range b.recs {
		body := appendChunkLine(nil, r.lead)
		b.bodies[codecNDJSON] = append(b.bodies[codecNDJSON], body[:len(body)-1])
		b.bodies[codecBinary] = append(b.bodies[codecBinary], wire.AppendFrames(nil, r.lead, 2048))
		for c := range b.bodies {
			bytesOf[c] += len(b.bodies[c][i])
		}
		for h := range b.want {
			ref, err := batchReference(ms.emb[h], r.lead)
			if err != nil {
				return nil, err
			}
			want := wire.AppendClassifyResponse(nil, ms.refs[h], ref)
			if err := checkResponse(want, ms.refs[h], ref); err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			b.beats[h] = append(b.beats[h], ref)
			b.want[h] = append(b.want[h], want)
		}
	}
	b.stats = describe(b.recs, func(i int) int { return len(b.beats[headFuzzy][i]) })
	b.stats.UplinkBinary = float64(bytesOf[codecBinary]) / float64(b.stats.Samples)
	b.stats.UplinkJSON = float64(bytesOf[codecNDJSON]) / float64(b.stats.Samples)
	return b, nil
}

// checkResponse holds an expected response body to the reference beats
// through encoding/json, so a byte comparison is a beat check.
func checkResponse(body []byte, model string, ref []pipeline.BeatResult) error {
	var got serve.ClassifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Model != model || got.Total != len(ref) || len(got.Beats) != len(ref) {
		return fmt.Errorf("response reads %s with %d beats, reference %s with %d", got.Model, len(got.Beats), model, len(ref))
	}
	for i, b := range ref {
		if got.Beats[i] != (serve.Beat{Sample: b.Peak, Class: b.Decision.String()}) {
			return fmt.Errorf("response beat %d reads %+v, reference %+v", i, got.Beats[i], b)
		}
	}
	return nil
}

func (b *classifyBatch) inputs() inputStats { return b.stats }

// setup starts the engine, serve's handler and its listener.
func (b *classifyBatch) setup() (system, error) { return b.models.newHTTPSystem() }

func (b *classifyBatch) run(sys system, ph phase) (*result, error) {
	s := sys.(*httpSystem)
	s.tr.Store(ph.tr)
	defer s.tr.Store(nil)
	start := mono()
	measureFrom, stop := start+ph.warm, start+ph.warm+ph.dur
	// Every record has the same length, so requests are due at a fixed step.
	step := int64(float64(len(b.recs[0].lead)) / ph.rate * 1e9)
	var counted atomic.Int64
	var res *result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = b.connection(s, ph, start, measureFrom, stop, step, &counted)
	}()
	m := markWindows(ph, measureFrom, stop, &counted)
	<-done
	res.nextOp = ph.firstOp + res.attempted + 1
	res.capacity = quietRate(res.cycleSamples, res.cycleNs, res.cycleSteal)
	res.cpuPerSample, res.rss, res.stealTotal = m.cpuPerUnit(), m.rssMB(), m.stealTotal()
	return res, m.err
}

// connection sends requests j = 0, 1, ... on one connection until the
// phase ends; in the open loop request j is due at start + j*step.
func (b *classifyBatch) connection(s *httpSystem, ph phase, start, measureFrom, stop, step int64, counted *atomic.Int64) *result {
	res := &result{}
	client := newClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	var cycleNs, cycleSteal int64 // closed loop: service time and steal of the current cycle so far
	for j := 0; ; j++ {
		due := start + int64(j)*step
		if ph.closed {
			if due = mono(); due >= stop {
				break
			}
		} else {
			if due >= stop {
				break
			}
			if now := sleepUntil(due); due >= measureFrom {
				res.lag = append(res.lag, float64(now-due)*msPerNs)
			}
		}
		rec, codec, head := j%len(b.recs), j%numCodecs, (j/numCodecs)%numHeads
		op := int64(ph.firstOp + j + 1)
		if due >= measureFrom {
			counted.Add(int64(len(b.recs[rec].lead)))
		}
		res.attempted++
		req, err := http.NewRequest(http.MethodPost, s.backend.url+"/v1/classify?model="+b.models.refs[head],
			bytes.NewReader(b.bodies[codec][rec]))
		if err != nil {
			res.failed++
			continue
		}
		req.Header.Set("Content-Type", bodyTypes[codec])
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		t0, steal0 := mono(), stealTicks()
		resp, err := client.Do(req)
		if err != nil {
			res.failed++
			continue
		}
		if resp.StatusCode != http.StatusOK {
			res.refuse("classify", resp)
			resp.Body.Close()
			continue
		}
		buf.Reset()
		_, err = io.Copy(&buf, resp.Body)
		resp.Body.Close()
		done := mono()
		ph.tr.add(span{Name: "client.classify", Op: op, Start: t0, End: done})
		if err != nil || !bytes.Equal(buf.Bytes(), b.want[head][rec]) {
			res.failed++
			res.mismatched++
			continue
		}
		if ph.closed {
			// One request at a time, rated per cycle of every request kind
			// (both encodings, both heads), so each rate covers the same mix.
			cycleNs += done - t0
			cycleSteal += stealTicks() - steal0
			if j%cycle == cycle-1 {
				res.cycleSamples = append(res.cycleSamples, float64(cycle*len(b.recs[rec].lead)))
				res.cycleNs = append(res.cycleNs, float64(cycleNs))
				res.cycleSteal = append(res.cycleSteal, float64(cycleSteal))
				cycleNs, cycleSteal = 0, 0
			}
			continue
		}
		w, lat := ph.window(measureFrom, due), float64(done-due)*msPerNs
		res.reqLat.add(w, lat)
		res.beatLat.addOp(w, lat, len(b.beats[head][rec]))
	}
	return res
}
