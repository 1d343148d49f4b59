package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/pipeline"
)

// fleetEngine drives pipeline.Engine in process: fleetSlots patient streams
// at a time, half pinned to each head, fed fleetChunk-sample chunks
// round-robin by one driver goroutine. A stream is closed (by a second
// goroutine, because Close waits for the flush) as soon as its last chunk is
// sent, and the next patient opens in its slot.
type fleetEngine struct {
	models *modelSet
	recs   []record
	refs   [numHeads][][]pipeline.BeatResult // stream reference per head, per record
	stats  inputStats
}

const (
	fleetSlots   = 256
	fleetChunk   = 180
	fleetRecords = 32
)

func newFleetEngine(seed uint64) (*fleetEngine, error) {
	ms, err := buildModels()
	if err != nil {
		return nil, err
	}
	f := &fleetEngine{models: ms, recs: synthRecords(seed, fleetRecords, 20, 20)}
	for h := range f.refs {
		f.refs[h] = make([][]pipeline.BeatResult, len(f.recs))
		for i, r := range f.recs {
			if f.refs[h][i], err = streamReference(ms.emb[h], r.lead); err != nil {
				return nil, err
			}
		}
	}
	for i, r := range f.recs {
		if err := checkOracle(f.refs[headFuzzy][i], r.lead); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	f.stats = describe(f.recs, func(i int) int { return len(f.refs[headFuzzy][i]) })
	return f, nil
}

type fleetSystem struct{ eng *pipeline.Engine }

func (s *fleetSystem) close() { s.eng.Close() }

// setup decodes the models into a catalog and starts a one-worker engine.
func (f *fleetEngine) setup() (system, error) {
	cat, err := f.models.newCatalog()
	if err != nil {
		return nil, err
	}
	return &fleetSystem{eng: pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 1})}, nil
}

// fleetStream is one patient's stream. The driver owns the send side; the
// sink fields are written by engine workers (serially) and read only after
// Close returned.
type fleetStream struct {
	st        *pipeline.Stream
	op        int64
	lead      []int32
	want      []pipeline.BeatResult
	due       []int64 // per chunk, written before the chunk is sent
	sent      int
	sendErr   bool
	abandoned atomic.Bool // the phase ended before the record did

	got int
	bad bool
	lat series // beat latencies, ms
}

func (fs *fleetStream) chunks() int { return (len(fs.lead) + fleetChunk - 1) / fleetChunk }

func (f *fleetEngine) run(sys system, ph phase) (*result, error) {
	eng := sys.(*fleetSystem).eng
	ctx := context.Background()
	res := &result{}
	start := mono()
	measureFrom, stop := start+ph.warm, start+ph.warm+ph.dur
	timed := !ph.closed

	// The closer goroutine owns res.attempted, failed, mismatched, reqLat
	// and beatLat until it exits; the driver owns the rest.
	closeCh := make(chan *fleetStream, fleetSlots) // at most one close per slot is usually pending
	var closer sync.WaitGroup
	closer.Add(1)
	go func() {
		defer closer.Done()
		for fs := range closeCh {
			t0 := mono()
			err := fs.st.Close()
			t1 := mono()
			ph.tr.add(span{Name: "engine.close", Op: fs.op, Start: t0, End: t1})
			complete := !fs.abandoned.Load()
			res.attempted++
			switch {
			case fs.bad || complete && fs.got != len(fs.want):
				res.failed++
				res.mismatched++
			case err != nil || fs.sendErr:
				res.failed++
			}
			if last := fs.due[len(fs.due)-1]; complete && timed {
				res.reqLat.add(ph.window(measureFrom, last), float64(t1-last)*msPerNs)
			}
			res.beatLat.merge(fs.lat)
		}
	}()

	open := func(patient int) (*fleetStream, error) {
		rec := patient % len(f.recs)
		head := (patient / len(f.recs)) % numHeads
		fs := &fleetStream{op: int64(patient + 1), lead: f.recs[rec].lead, want: f.refs[head][rec]}
		fs.due = make([]int64, fs.chunks())
		sink := func(bs []pipeline.BeatResult) {
			now := mono()
			if fs.abandoned.Load() {
				return
			}
			for _, b := range bs {
				switch {
				case fs.got >= len(fs.want) || b != fs.want[fs.got]:
					fs.bad = true
				case timed:
					d := fs.due[b.DetectedAt/fleetChunk]
					fs.lat.add(ph.window(measureFrom, d), float64(now-d)*msPerNs)
				}
				fs.got++
			}
		}
		t0 := mono()
		st, err := eng.Open(ctx, f.models.refs[head], pipeline.Config{}, sink)
		ph.tr.add(span{Name: "engine.open", Op: fs.op, Start: t0, End: mono()})
		fs.st = st
		return fs, err
	}

	slots := make([]*fleetStream, fleetSlots)
	pending := func() int64 {
		n := 0
		for _, s := range slots {
			if s != nil {
				n += s.st.PendingSamples()
			}
		}
		return int64(n)
	}
	dt := int64(float64(fleetChunk) / ph.rate * 1e9)
	var m meter
	nextMark := measureFrom
	var sent, sentMeasured int64
	patient := ph.firstOp
	var runErr error
	for j := int64(0); ; j++ {
		due := start + j*dt
		var now int64
		if ph.closed {
			if now = mono(); now >= stop {
				break
			}
			if now >= nextMark {
				m.mark(sent - pending()) // samples the engine has drained
				nextMark += windowNs
			}
		} else {
			if due >= stop {
				break
			}
			if due >= nextMark {
				m.mark(sentMeasured)
				nextMark += windowNs
			}
			now = sleepUntil(due)
		}
		slot := j % fleetSlots
		fs := slots[slot]
		if fs == nil {
			var err error
			if fs, err = open(patient); err != nil {
				runErr = fmt.Errorf("opening patient %d: %w", patient, err)
				break
			}
			patient++
			slots[slot] = fs
		}
		if ph.closed {
			// A window of two chunks per stream: the engine always has
			// work queued, and the driver never runs ahead of it.
			for fs.st.PendingSamples() > fleetChunk && mono() < stop {
				sleepUntil(mono() + 250_000)
			}
			due = mono()
		} else if due >= measureFrom {
			res.lag = append(res.lag, float64(now-due)*msPerNs)
		}
		c := fs.sent
		chunk := fs.lead[c*fleetChunk : min((c+1)*fleetChunk, len(fs.lead))]
		fs.due[c] = due
		for {
			t0 := mono()
			err := fs.st.Send(ctx, chunk)
			ph.tr.add(span{Name: "engine.send", Op: fs.op, Start: t0, End: mono()})
			if !apierr.IsCode(err, apierr.CodeStreamOverloaded) {
				fs.sendErr = fs.sendErr || err != nil
				break
			}
			res.retries++
			time.Sleep(time.Millisecond)
		}
		fs.sent++
		sent += int64(len(chunk))
		if due >= measureFrom {
			sentMeasured += int64(len(chunk))
		}
		if fs.sent == fs.chunks() {
			closeCh <- fs
			slots[slot] = nil
		}
		if ph.tr != nil && slot == fleetSlots-1 {
			res.backlog = append(res.backlog, float64(pending()))
		}
	}
	if ph.closed {
		m.mark(sent - pending())
	} else {
		m.mark(sentMeasured)
	}
	for _, fs := range slots {
		if fs != nil {
			fs.abandoned.Store(true)
			closeCh <- fs
		}
	}
	close(closeCh)
	closer.Wait()
	res.nextOp = patient
	res.capacity, res.cpuPerSample, res.rss, res.stealTotal = m.rate(), m.cpuPerUnit(), m.rssMB(), m.stealTotal()
	return res, errors.Join(runErr, m.err)
}

func (f *fleetEngine) inputs() inputStats { return f.stats }
