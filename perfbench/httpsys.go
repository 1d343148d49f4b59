package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
)

// server is one loopback listener serving a handler until close.
type server struct {
	srv  *http.Server
	url  string
	done sync.WaitGroup
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener and every connection, and waits for Serve.
func (s *server) close() {
	s.srv.Close()
	s.done.Wait()
}

// traceSwitch routes requests through tracedHandler while a tracer is
// installed and straight to the handler otherwise, so one set-up serves
// both the untraced and the traced phases.
type traceSwitch struct {
	tr    *atomic.Pointer[tracer]
	layer string
	next  http.Handler
}

func (h traceSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t := h.tr.Load(); t != nil {
		tracedHandler{t: t, layer: h.layer, next: h.next}.ServeHTTP(w, r)
		return
	}
	h.next.ServeHTTP(w, r)
}

// httpSystem is the serving stack of the HTTP workloads: a one-worker
// engine behind serve's handler on a loopback listener.
type httpSystem struct {
	eng     *pipeline.Engine
	backend *server
	tr      atomic.Pointer[tracer]
}

func (ms *modelSet) newHTTPSystem() (*httpSystem, error) {
	cat, err := ms.newCatalog()
	if err != nil {
		return nil, err
	}
	s := &httpSystem{eng: pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 1})}
	h := traceSwitch{tr: &s.tr, layer: "serve", next: serve.NewHandler(s.eng, serve.HandlerConfig{})}
	if s.backend, err = listen(h); err != nil {
		s.eng.Close()
		return nil, err
	}
	return s, nil
}

func (s *httpSystem) close() {
	s.backend.close()
	s.eng.Close()
}

// newClient is one load connection: a keep-alive transport limited to a
// single connection to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// backendShed reads the serving tier's own overload counters from
// /healthz: streams and batch requests shed so far (NaN if unreadable,
// which fails the run).
func backendShed(url string) float64 {
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return math.NaN()
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return math.NaN()
	}
	return float64(h.Overload.ShedStreams + h.Overload.ShedBatch)
}

// appendChunkLine renders one {"samples":[...]} NDJSON line.
func appendChunkLine(buf []byte, samples []int32) []byte {
	buf = append(buf, `{"samples":[`...)
	for i, v := range samples {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']', '}', '\n')
}

func bufioReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 64<<10) }

// drain reads a response to its end, so the connection can be reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// refuse counts a typed refusal as a failed operation and reports its code.
func (r *result) refuse(what string, resp *http.Response) {
	r.refusals++
	r.failed++
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	fmt.Fprintf(os.Stderr, "perfbench: %s refused: %d %s", what, resp.StatusCode, body)
}
