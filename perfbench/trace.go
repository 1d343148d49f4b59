package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0: no parent span
	Op     int64  `json:"op,omitempty"`     // the stream, request or upload served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the byte count through the call's connection side once the
	// call returned (body reads, response writes, chunk sends), which is how
	// a hop is matched across the gateway.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newID reserves a span id, so children can name a parent that is still open.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span, assigning an id when it has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the spans called name, in recording order.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, scaled by unit
// (nanoseconds per reported unit).
func (t *tracer) durations(name string, unit float64) []float64 {
	var out []float64
	for _, s := range t.byName(name) {
		out = append(out, float64(s.dur())/unit)
	}
	return out
}

// layerTime is one span name's totals: calls, wall time, and self time
// (wall time minus the part of it that child spans cover).
type layerTime struct {
	Calls  int   `json:"calls"`
	WallNs int64 `json:"wall_ns"`
	SelfNs int64 `json:"self_ns"`
}

// selfTimes aggregates every span's self time by name.
func (t *tracer) selfTimes() map[string]layerTime {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Calls++
		lt.WallNs += s.dur()
		lt.SelfNs += s.dur() - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write saves every span and the per-name self times as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"self_times": t.selfTimes(), "spans": len(t.spans)}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opHeader carries the benchmark's operation id on every request it sends,
// so the spans the server-side wrappers record join the client's.
const opHeader = "X-Bench-Op"

func opOf(r *http.Request) int64 {
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	return op
}

// tracedHandler wraps a server tier's handler from the outside: one span
// per request (handler busy time), one per request-body Read (time the
// handler waited for the client), one per response Write.
type tracedHandler struct {
	t     *tracer
	layer string // span name prefix: "serve" or "gate"
	next  http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, id, start := opOf(r), h.t.newID(), mono()
	r.Body = &tracedBody{ReadCloser: r.Body, t: h.t, name: h.layer + ".body_read", parent: id, op: op}
	h.next.ServeHTTP(&tracedWriter{ResponseWriter: w, t: h.t, name: h.layer + ".write", parent: id, op: op}, r)
	h.t.add(span{Name: h.layer + ".handler", ID: id, Op: op, Start: start, End: mono()})
}

type tracedBody struct {
	io.ReadCloser
	t          *tracer
	name       string
	parent, op int64
	n          int64
}

func (b *tracedBody) Read(p []byte) (int, error) {
	start := mono()
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	b.t.add(span{Name: b.name, Parent: b.parent, Op: b.op, Start: start, End: mono(), Bytes: b.n})
	return n, err
}

// tracedWriter times response writes. Unwrap lets http.ResponseController
// reach the server's own writer for Flush and full-duplex control.
type tracedWriter struct {
	http.ResponseWriter
	t          *tracer
	name       string
	parent, op int64
	mu         sync.Mutex // beat lines are written from engine workers
	n          int64
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := mono()
	n, err := w.ResponseWriter.Write(p)
	w.mu.Lock()
	w.n += int64(n)
	total := w.n
	w.mu.Unlock()
	w.t.add(span{Name: w.name, Parent: w.parent, Op: w.op, Start: start, End: mono(), Bytes: total})
	return n, err
}

func (w *tracedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// hops matches, per operation, each "from" span to the first "to" span whose
// byte count reaches it, and returns the delays in microseconds: how long a
// byte took from one side of a tier to the other.
func hops(from, to []span) []float64 {
	byOp := map[int64][]span{}
	for _, s := range to {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var out []float64
	for _, f := range from {
		if f.Bytes == 0 {
			continue
		}
		for _, s := range byOp[f.Op] {
			if s.Bytes >= f.Bytes {
				out = append(out, float64(s.End-f.End)/1e3)
				break
			}
		}
	}
	return out
}

// traceFile names the span dump of one traced run.
func traceFile(dir, workload string, seed uint64) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.ndjson", dir, workload, seed)
}
