package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"rpbeat/internal/gate"
	"rpbeat/internal/load"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/wire"
)

// streamGateway drives loopback HTTP through the gateway: two client
// connections at a time, one sending binary frames and one NDJSON lines,
// each carrying patient streams back to back in gwChunk-sample chunks → an
// in-process gate.Gateway (one backend, default failover window, so the
// replay journals are on) → serve's handler → a one-worker engine. Between
// streams the NDJSON connection uploads a new model through the gateway
// every uploadEveryNs, so catalog writes run beside catalog reads.
//
// Each stream closes its connection when it ends, and the next request
// dials a new one. The gateway cancels the next request on a connection
// that carried a stream now and then: its stream relay sets an immediate
// read deadline on the client connection as it returns, and when net/http's
// background read on that connection has already started, the read fails
// and cancels the connection's context. Those failures would come and go
// with timing from run to run; the traced run counts them instead, as
// gate.keepalive_reuse_failed (see reuseFailures).
type streamGateway struct {
	models  *modelSet
	seed    uint64
	recs    []record
	enc     [numCodecs][][][]byte // per codec, per record: one encoded unit per chunk
	want    [numHeads][][][]byte  // per head, per record: the exact response lines
	beats   [numHeads][][]pipeline.BeatResult
	uploads [][]byte
	stats   inputStats
}

const (
	gwChunk   = 36 // 100 ms at 360 Hz
	gwRecords = 16

	codecBinary = 0
	codecNDJSON = 1
	numCodecs   = 2

	uploadEveryNs = 250_000_000
)

var codecTypes = [numCodecs]string{wire.ContentTypeSamples, wire.ContentTypeNDJSON}

func newStreamGateway(seed uint64, secs int) (*streamGateway, error) {
	ms, err := buildModels()
	if err != nil {
		return nil, err
	}
	g := &streamGateway{models: ms, seed: seed, recs: synthRecords(seed, gwRecords, 20, 20)}
	// One upload per uploadEveryNs at most, in every phase of a run.
	if g.uploads, err = uploadBlobs(secs*1e9/uploadEveryNs + 16); err != nil {
		return nil, err
	}
	var bytesOf [numCodecs]int
	for c := range g.enc {
		g.enc[c] = make([][][]byte, len(g.recs))
	}
	for h := range g.want {
		g.want[h] = make([][][]byte, len(g.recs))
		g.beats[h] = make([][]pipeline.BeatResult, len(g.recs))
	}
	for i, r := range g.recs {
		frames, lines, err := encodeChunks(r.lead, gwChunk)
		if err != nil {
			return nil, err
		}
		g.enc[codecBinary][i], g.enc[codecNDJSON][i] = frames, lines
		for c := range g.enc {
			for _, u := range g.enc[c][i] {
				bytesOf[c] += len(u)
			}
		}
		for h := range g.want {
			ref, err := streamReference(ms.emb[h], r.lead)
			if err != nil {
				return nil, err
			}
			g.beats[h][i] = ref
			g.want[h][i] = streamLines(ms.refs[h], ref, len(r.lead))
			if err := checkLines(g.want[h][i], ref); err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
		}
		if err := checkOracle(g.beats[headFuzzy][i], r.lead); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	g.stats = describe(g.recs, func(i int) int { return len(g.beats[headFuzzy][i]) })
	g.stats.UplinkBinary = float64(bytesOf[codecBinary]) / float64(g.stats.Samples)
	g.stats.UplinkJSON = float64(bytesOf[codecNDJSON]) / float64(g.stats.Samples)
	return g, nil
}

// checkLines holds the expected response lines to the reference beats
// through an independent decoder, so a line comparison is a beat check.
func checkLines(lines [][]byte, ref []pipeline.BeatResult) error {
	for i, b := range ref {
		var got struct {
			Sample     int    `json:"sample"`
			Class      string `json:"class"`
			DetectedAt int    `json:"detectedAt"`
		}
		if err := json.Unmarshal(lines[i], &got); err != nil {
			return err
		}
		if got.Sample != b.Peak || got.Class != b.Decision.String() || got.DetectedAt != b.DetectedAt {
			return fmt.Errorf("beat line %d reads %+v, reference %+v", i, got, b)
		}
	}
	return nil
}

func (g *streamGateway) inputs() inputStats { return g.stats }

// gatewaySystem is the backend stack with the gateway in front of it.
type gatewaySystem struct {
	*httpSystem
	gw      *gate.Gateway
	front   *server
	uploads int // models uploaded so far; each upload takes the next blob
}

func (s *gatewaySystem) close() {
	s.front.close()
	s.gw.Close()
	s.httpSystem.close()
}

// setup starts the backend, the gateway and its listener, and completes
// the gateway's first health and catalog round.
func (g *streamGateway) setup() (system, error) {
	hs, err := g.models.newHTTPSystem()
	if err != nil {
		return nil, err
	}
	gw, err := gate.New(gate.Config{Backends: []string{hs.backend.url}})
	if err != nil {
		hs.close()
		return nil, err
	}
	s := &gatewaySystem{httpSystem: hs, gw: gw}
	if s.front, err = listen(traceSwitch{tr: &hs.tr, layer: "gate", next: gw.Handler()}); err != nil {
		gw.Close()
		hs.close()
		return nil, err
	}
	gw.CheckNow(context.Background())
	if !gw.Status().OK {
		s.close()
		return nil, fmt.Errorf("gateway has no routable backend after its first check")
	}
	return s, nil
}

func (g *streamGateway) run(sys system, ph phase) (*result, error) {
	s := sys.(*gatewaySystem)
	s.tr.Store(ph.tr)
	defer s.tr.Store(nil)
	start := mono()
	measureFrom, stop := start+ph.warm, start+ph.warm+ph.dur
	// Each connection carries half the offered rate.
	dt := int64(float64(gwChunk) / (ph.rate / numCodecs) * 1e9)
	var counted atomic.Int64
	results := make([]*result, numCodecs)
	var wg sync.WaitGroup
	for c := range numCodecs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = g.connection(s, c, ph, start, measureFrom, stop, dt, &counted)
		}()
	}
	m := markWindows(ph, measureFrom, stop, &counted)
	wg.Wait()
	res := merge(results)
	res.nextOp = ph.firstOp + 2*res.attempted + numCodecs
	res.capacity, res.cpuPerSample, res.rss, res.stealTotal = m.rate(), m.cpuPerUnit(), m.rssMB(), m.stealTotal()
	return res, m.err
}

// connection runs one client connection's streams back to back until the
// phase ends. Chunk n of the connection's schedule is due at start + n*dt.
func (g *streamGateway) connection(s *gatewaySystem, codec int, ph phase, start, measureFrom, stop, dt int64, counted *atomic.Int64) *result {
	res := &result{}
	client := newClient()
	defer client.CloseIdleConnections()
	seq := 0 // chunks sent on this connection so far
	nextUpload := start
	for k := 0; ; k++ {
		if ph.closed && mono() >= stop || !ph.closed && start+int64(seq)*dt >= stop {
			break
		}
		if codec == codecNDJSON && mono() >= nextUpload {
			g.upload(client, s, ph, res)
			nextUpload += uploadEveryNs
		}
		patient := 2*k + codec
		rec := patient % len(g.recs)
		head := (patient / numCodecs) % numHeads
		op := int64(ph.firstOp + patient + 1)
		body := &pacedBody{chunks: g.enc[codec][rec], samples: len(g.recs[rec].lead),
			measureFrom: measureFrom, counted: counted, tr: ph.tr, op: op}
		first := seq
		due := func(i int) int64 { return start + int64(first+i)*dt }
		if !ph.closed {
			body.due = due
		}
		seq += len(body.chunks)
		req, err := http.NewRequest(http.MethodPost, s.front.url+"/v1/stream?model="+g.models.refs[head], body)
		if err != nil {
			res.attempted++
			res.failed++
			continue
		}
		req.Close = true // see the note on streamGateway
		req.Header.Set("Content-Type", codecTypes[codec])
		req.Header.Set("X-Stream-Id", load.StreamID(g.seed, patient))
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		g.stream(client, req, body, g.want[head][rec], g.beats[head][rec], due, ph, measureFrom, res)
		res.lag = append(res.lag, body.lags()...)
	}
	return res
}

// stream sends one patient stream and checks every response line.
func (g *streamGateway) stream(client *http.Client, req *http.Request, body *pacedBody, want [][]byte,
	beats []pipeline.BeatResult, due func(int) int64, ph phase, measureFrom int64, res *result) {
	res.attempted++
	resp, err := client.Do(req)
	if err != nil {
		res.failed++
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.refuse("stream", resp)
		return
	}
	lr := &lineReader{br: bufioReader(resp.Body), tr: ph.tr, op: body.op}
	n := 0
	for ; ; n++ {
		line, now, err := lr.next()
		if err != nil {
			break
		}
		if n >= len(want) || !bytes.Equal(line, want[n]) {
			if bytes.HasPrefix(line, []byte(`{"error"`)) {
				res.refusals++ // a typed error trailer ends the stream
			} else {
				res.mismatched++
			}
			res.failed++
			return
		}
		if ph.closed {
			continue
		}
		if n < len(beats) {
			d := due(beats[n].DetectedAt / gwChunk)
			res.beatLat.add(ph.window(measureFrom, d), float64(now-d)*msPerNs)
		} else {
			d := due(len(body.chunks) - 1)
			res.reqLat.add(ph.window(measureFrom, d), float64(now-d)*msPerNs)
		}
	}
	if n != len(want) {
		res.failed++ // the response ended early
	}
}

// reuseProbes is how many short streams reuseFailures sends.
const reuseProbes = 200

// reuseFailures sends reuseProbes two-chunk binary streams back to back on
// one keep-alive connection through the gateway and counts those that fail
// or answer other than the reference.
func (g *streamGateway) reuseFailures(s *gatewaySystem) (float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	failed := 0
	for i := range reuseProbes {
		rec, head := i%len(g.recs), i%numHeads
		lead := g.recs[rec].lead[:2*gwChunk]
		ref, err := streamReference(g.models.emb[head], lead)
		if err != nil {
			return 0, err
		}
		want := bytes.Join(streamLines(g.models.refs[head], ref, len(lead)), nil)
		req, err := http.NewRequest(http.MethodPost, s.front.url+"/v1/stream?model="+g.models.refs[head],
			bytes.NewReader(slices.Concat(g.enc[codecBinary][rec][:2]...)))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", codecTypes[codecBinary])
		req.Header.Set("X-Stream-Id", load.StreamID(g.seed, -1-i))
		resp, err := client.Do(req)
		if err != nil {
			failed++
			continue
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			failed++
		}
	}
	return float64(failed), nil
}

// upload posts the next fabricated model through the gateway.
func (g *streamGateway) upload(client *http.Client, s *gatewaySystem, ph phase, res *result) {
	res.attempted++
	if s.uploads >= len(g.uploads) {
		res.failed++
		return
	}
	blob := g.uploads[s.uploads]
	s.uploads++
	req, err := http.NewRequest(http.MethodPost, s.front.url+"/v1/models?name=upload", bytes.NewReader(blob))
	if err != nil {
		res.failed++
		return
	}
	t0 := mono()
	resp, err := client.Do(req)
	if err != nil {
		res.failed++
		return
	}
	if resp.StatusCode != http.StatusCreated {
		res.refuse("upload", resp)
		resp.Body.Close()
		return
	}
	drain(resp)
	t1 := mono()
	ph.tr.add(span{Name: "client.upload", Start: t0, End: t1})
	res.uploads = append(res.uploads, float64(t1-t0)*msPerNs)
}

// pacedBody is a /v1/stream request body that hands the transport one
// encoded chunk per Read, each no earlier than its due instant (or at once
// when due is nil: the closed loop). The transport writes every Read as one
// flushed HTTP chunk.
type pacedBody struct {
	chunks      [][]byte
	samples     int               // in the whole stream
	due         func(i int) int64 // nil: closed loop
	measureFrom int64
	counted     *atomic.Int64 // samples sent, for the phase's meter
	tr          *tracer
	op          int64

	i    int
	rest []byte
	sent int64

	mu  sync.Mutex // the transport reads the body on its own goroutine
	lag []float64
}

func (b *pacedBody) Read(p []byte) (int, error) {
	if len(b.rest) == 0 {
		if b.i == len(b.chunks) {
			return 0, io.EOF
		}
		n := int64(min(gwChunk, b.samples-b.i*gwChunk))
		if b.due == nil {
			b.counted.Add(n)
		} else if due := b.due(b.i); due >= b.measureFrom {
			now := sleepUntil(due)
			b.counted.Add(n)
			b.mu.Lock()
			b.lag = append(b.lag, float64(now-due)*msPerNs)
			b.mu.Unlock()
		} else {
			sleepUntil(due)
		}
		b.rest = b.chunks[b.i]
		b.i++
	}
	n := copy(p, b.rest)
	b.rest = b.rest[n:]
	b.sent += int64(n)
	if len(b.rest) == 0 && b.tr != nil {
		now := mono()
		b.tr.add(span{Name: "client.chunk_send", Op: b.op, Start: now, End: now, Bytes: b.sent})
	}
	return n, nil
}

func (b *pacedBody) lags() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lag
}

// encodeChunks cuts lead into chunk-sample pieces in both stream codecs:
// one binary frame, or one NDJSON line, per chunk.
func encodeChunks(lead []int32, chunk int) (frames, lines [][]byte, err error) {
	for off := 0; off < len(lead); off += chunk {
		part := lead[off:min(off+chunk, len(lead))]
		f, err := wire.AppendFrame(nil, part)
		if err != nil {
			return nil, nil, err
		}
		frames = append(frames, f)
		lines = append(lines, appendChunkLine(nil, part))
	}
	return frames, lines, nil
}

// streamLines is the exact response a lossless stream of ref's beats must
// carry: one line per beat, then the done summary.
func streamLines(model string, beats []pipeline.BeatResult, samples int) [][]byte {
	out := make([][]byte, 0, len(beats)+1)
	for _, b := range beats {
		out = append(out, wire.AppendStreamBeat(nil, b.Peak, b.Decision.String(), b.DetectedAt))
	}
	return append(out, wire.AppendStreamDone(nil, model, len(beats), samples))
}

// lineReader reads NDJSON lines and, when traced, records each read with
// the byte count through the response so far.
type lineReader struct {
	br *bufio.Reader
	tr *tracer
	op int64
	n  int64
}

func (l *lineReader) next() ([]byte, int64, error) {
	line, err := l.br.ReadSlice('\n')
	now := mono()
	l.n += int64(len(line))
	if len(line) > 0 && l.tr != nil {
		l.tr.add(span{Name: "client.line_read", Op: l.op, Start: now, End: now, Bytes: l.n})
	}
	if errors.Is(err, io.EOF) && len(line) > 0 {
		err = nil
	}
	return line, now, err
}
