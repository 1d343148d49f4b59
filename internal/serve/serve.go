// Package serve is the HTTP surface of the classification service, shared
// by cmd/rpserve and examples/serve. Two data paths:
//
//   - POST /v1/classify — whole-record batch classification (the exact batch
//     reference path, pipeline.BatchClassify): one request in, one JSON
//     response out.
//   - POST /v1/stream — online classification: the client sends chunks of
//     samples as they are acquired; the server answers with one NDJSON line
//     per finalized beat, flushed as soon as the streaming pipeline emits it
//     (the engine classifies whole chunks at a time via Pipeline.PushChunk,
//     so beats surface in per-chunk bursts), and a final {"done":true}
//     summary.
//
// Both endpoints negotiate the request encoding on Content-Type:
//
//   - application/x-rpbeat-samples selects the binary sample transport
//     (internal/wire frames; the model is referenced with ?model=), the
//     compact uplink for bandwidth-bound WBSN acquisition clients;
//   - anything else is parsed as JSON — {"model":...,"samples":[...]} on
//     /v1/classify, NDJSON {"samples":[...]} chunk lines on /v1/stream —
//     through the hand-rolled internal/wire parser.
//
// Responses are always JSON/NDJSON, built by internal/wire's append-style
// encoders into pooled buffers: byte-identical to what encoding/json would
// emit, without its per-request allocations. Data-path serving is
// allocation-free above the engine once the pools are warm.
//
// Both data paths select a model with a catalog reference — "name" (latest
// version) or "name@vN" (pinned) — and fall back to the catalog default.
//
// The admin surface manages the model catalog while streams are in flight:
//
//   - GET    /v1/models        inventory (every version, manifests, default)
//   - POST   /v1/models?name=n upload a model (JSON or binary codec form,
//     sniffed); the catalog recomputes the manifest and assigns the next
//     version
//   - GET    /v1/models/{ref}  manifest detail of one resolved version
//   - DELETE /v1/models/{ref}  retire one explicit version (ref must be
//     name@vN)
//   - PUT    /v1/default       {"model":"ref"} repoints the default
//
// Plus GET /healthz (liveness + the overload counters). Every failure, on
// every route, is rendered as the uniform typed body
// {"error":{"code":"...","message":"..."}} with the status internal/apierr
// assigns to the code; request contexts are plumbed into the engine, so an
// abandoned request stops consuming workers.
//
// Both data paths run behind admission control (internal/overload): a
// per-tenant token-bucket rate limit (X-Tenant header, client IP fallback;
// typed rate_limited) and a two-rung shed ladder — at HandlerConfig.
// MaxStreams open streams, new /v1/stream requests are refused with the
// typed server_overloaded error while /v1/classify stays admitted (stream
// clients degrade to batch), and at MaxBatch in-flight batch requests the
// data path is refused entirely. Refused requests cost one CAS; every
// retryable refusal (and the engine's shutting_down during a drain) carries
// a Retry-After header. Clients always see contract errors, never resets.
package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/httpconn"
	"rpbeat/internal/overload"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/wire"
)

// maxClassifyBytes bounds a /v1/classify request body (~1 hour of one lead
// as JSON numbers).
const maxClassifyBytes = 64 << 20

// maxStreamLineBytes bounds one NDJSON chunk line on /v1/stream. (Binary
// stream chunks are bounded per frame by wire.MaxFrameSamples instead.)
const maxStreamLineBytes = 8 << 20

// maxClassifySamples bounds the decoded lead of one /v1/classify request
// (~3 hours of one 360 Hz lead). The JSON path is implicitly bounded by
// maxClassifyBytes (≥2 body bytes per sample), but width-1 delta frames
// decode at ~1 byte per sample, so the binary path needs its own sample
// bound or a 64 MiB body could expand to a quarter-gigabyte lead.
const maxClassifySamples = 4 << 20

// HandlerConfig tunes the handler; the zero value is the serving default.
type HandlerConfig struct {
	// MaxUploadBytes bounds a POST /v1/models body; default
	// core.MaxModelBytes (the codec's own ceiling).
	MaxUploadBytes int64
	// MaxStreams bounds concurrently open /v1/stream requests. At the
	// bound, new streams are shed with the typed server_overloaded error
	// while batch /v1/classify stays admitted — the shed ladder's first
	// rung (see internal/overload). Zero means unlimited.
	MaxStreams int
	// MaxBatch bounds in-flight /v1/classify requests — the ladder's second
	// rung. Zero means unlimited.
	MaxBatch int
	// RatePerTenant meters data-path request starts per tenant (the
	// X-Tenant header, or the client IP without one) in requests/second;
	// violations get the typed rate_limited error. Zero disables limiting.
	RatePerTenant float64
	// RateBurst is the token-bucket depth per tenant; default
	// max(1, RatePerTenant).
	RateBurst float64
	// Instance names this server replica. When set, every response — typed
	// refusals included — carries it as the X-Rpbeat-Instance header, so a
	// gateway tier (cmd/rpgate) and its load clients can attribute shedding
	// and results to the backend that produced them.
	Instance string
}

type server struct {
	eng       *pipeline.Engine
	maxUpload int64
	gate      *overload.Gate
	limiter   *overload.Limiter
	// scratch pools the per-request working buffers of /v1/classify: the
	// request body bytes, the decoded sample slice, the millivolt
	// conversion, the morphological filter and wavelet-detector buffers,
	// the per-beat classification scratch and the encoded response are all
	// reused across requests instead of allocated per call, so a steady
	// request rate holds a steady working set (the whole batch path is
	// O(1) allocations on a warm scratch).
	scratch sync.Pool
	// chunks pools /v1/stream's per-connection decoded-chunk slices.
	chunks sync.Pool
}

// lineBufs pools the small response buffers behind writeErr and the
// /v1/stream beat/summary/error lines, so steady-state serving writes
// without allocating encoder state per line.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// NewHandler builds the HTTP handler serving the engine's model catalog:
// the data endpoints (POST /v1/classify, POST /v1/stream), the admin
// endpoints (GET|POST /v1/models, GET|DELETE /v1/models/{ref},
// PUT /v1/default) and GET /healthz.
func NewHandler(eng *pipeline.Engine, cfg HandlerConfig) http.Handler {
	s := &server{
		eng: eng, maxUpload: cfg.MaxUploadBytes,
		gate: overload.NewGate(overload.GateConfig{MaxStreams: cfg.MaxStreams, MaxBatch: cfg.MaxBatch}),
	}
	if cfg.RatePerTenant > 0 {
		s.limiter = overload.NewLimiter(overload.LimiterConfig{Rate: cfg.RatePerTenant, Burst: cfg.RateBurst})
	}
	if s.maxUpload <= 0 {
		s.maxUpload = core.MaxModelBytes
	}
	s.scratch.New = func() any { return new(classifyScratch) }
	s.chunks.New = func() any { b := make([]int32, 0, 1024); return &b }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.health)
	mux.HandleFunc("GET /v1/models", s.listModels)
	mux.HandleFunc("POST /v1/models", s.uploadModel)
	mux.HandleFunc("GET /v1/models/{ref}", s.modelDetail)
	mux.HandleFunc("DELETE /v1/models/{ref}", s.deleteModel)
	mux.HandleFunc("PUT /v1/default", s.setDefault)
	mux.HandleFunc("POST /v1/classify", s.classify)
	mux.HandleFunc("POST /v1/stream", s.stream)
	// Method fallbacks: a known path with the wrong verb answers with the
	// typed method_not_allowed body instead of the mux's plain-text 405
	// (method-qualified patterns above are more specific and win).
	for _, path := range []string{
		"/healthz", "/v1/models", "/v1/models/{ref}", "/v1/default", "/v1/classify", "/v1/stream",
	} {
		mux.HandleFunc(path, s.methodNotAllowed)
	}
	mux.HandleFunc("/", s.notFound)
	return affinityHeaders{next: mux, instance: cfg.Instance}
}

// affinityHeaders decorates every response with the multi-node attribution
// headers: the replica's X-Rpbeat-Instance identity (when configured) and
// an echo of the client's X-Stream-Id affinity token. Both are set before
// the wrapped handler runs, so they ride along on success bodies, typed
// refusals and streamed NDJSON alike — which is what lets a gateway client
// attribute a shed stream to the backend that refused it.
type affinityHeaders struct {
	next     http.Handler
	instance string
}

func (a affinityHeaders) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.instance != "" {
		w.Header().Set("X-Rpbeat-Instance", a.instance)
	}
	if id := r.Header.Get("X-Stream-Id"); id != "" {
		w.Header().Set("X-Stream-Id", id)
	}
	a.next.ServeHTTP(w, r)
}

// classifyScratch is one request's reusable buffer set.
type classifyScratch struct {
	body    []byte  // raw request body bytes
	samples []int32 // the decoded lead
	batch   pipeline.BatchScratch
	resp    []byte // encoded response
}

// ErrorResponse is the uniform JSON error body of every endpoint.
type ErrorResponse struct {
	Error apierr.Error `json:"error"`
}

// writeErr renders any error as the typed JSON body, coercing untyped ones
// through apierr.From. The body is built by wire.AppendError in a pooled
// buffer — byte-identical to the json.Encoder rendering of ErrorResponse,
// without the per-error encoder allocations.
func writeErr(w http.ResponseWriter, err error) {
	ae := apierr.From(err)
	bp := lineBufs.Get().(*[]byte)
	buf := wire.AppendError((*bp)[:0], string(ae.Code), ae.Message)
	if ae.Retryable() {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.HTTPStatus())
	w.Write(buf)
	*bp = buf[:0]
	lineBufs.Put(bp)
}

// wireErr maps an internal/wire decode failure onto the apierr contract:
// an oversized frame is payload_too_large, everything else (syntax errors,
// malformed frames) is the client's bad_input.
func wireErr(err error) error {
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return apierr.New(apierr.CodePayloadTooLarge, "%v", err)
	}
	return apierr.New(apierr.CodeBadInput, "%v", err)
}

// retryAfter is the Retry-After header value on every retryable refusal
// (overload, rate limit, drain): long enough to thin a retry storm, short
// enough that a fleet recovers promptly after the pressure clears.
const retryAfter = "1"

// tenant identifies the client for rate limiting: the X-Tenant header when
// present (how a gateway or SDK names the paying principal), the client IP
// otherwise.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *server) methodNotAllowed(w http.ResponseWriter, r *http.Request) {
	writeErr(w, apierr.New(apierr.CodeMethodNotAllowed, "%s not allowed on %s", r.Method, r.URL.Path))
}

func (s *server) notFound(w http.ResponseWriter, r *http.Request) {
	writeErr(w, apierr.New(apierr.CodeNotFound, "no route %s", r.URL.Path))
}

// HealthResponse is the GET /healthz body: liveness plus the overload
// picture — the admission gate's counters and the engine's open-stream
// count — so an operator (or a load balancer) sees shedding as numbers.
type HealthResponse struct {
	OK            bool           `json:"ok"`
	Overload      overload.Stats `json:"overload"`
	EngineStreams int            `json:"engineStreams"`
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:            true,
		Overload:      s.gate.Stats(),
		EngineStreams: s.eng.OpenStreams(),
	})
}

// snapshot is the per-request catalog view: one atomic load, consistent for
// the request's whole lifetime.
func (s *server) snapshot() *catalog.Snapshot { return s.eng.Catalog().Snapshot() }

// ModelInfo is one model version of the GET /v1/models inventory: its
// manifest plus the serving-side footprints.
type ModelInfo struct {
	catalog.Manifest
	MemoryBytes int  `json:"memoryBytes"` // node tables (what would be flashed)
	HostBytes   int  `json:"hostBytes"`   // node tables + host-side sparse kernel
	Latest      bool `json:"latest,omitempty"`
	Default     bool `json:"default,omitempty"` // what "" resolves to right now
}

// ModelsResponse is the GET /v1/models reply.
type ModelsResponse struct {
	Default string      `json:"default,omitempty"` // the default reference as configured
	Models  []ModelInfo `json:"models"`
}

// modelInfo renders one entry; def is what the default reference resolves
// to right now (nil when unset) and latest the newest entry of e's name —
// resolved once by the caller, not per entry.
func modelInfo(e, def, latest *catalog.Entry) ModelInfo {
	return ModelInfo{
		Manifest:    e.Manifest,
		MemoryBytes: e.Emb.MemoryBytes(),
		HostBytes:   e.Emb.HostBytes(),
		Latest:      e == latest,
		Default:     e == def,
	}
}

func (s *server) listModels(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	def, _ := snap.Resolve("") // nil default is fine: no entry is flagged
	out := ModelsResponse{Default: snap.Default(), Models: make([]ModelInfo, 0, snap.Len())}
	for _, name := range snap.Names() {
		versions := snap.Versions(name)
		latest := versions[len(versions)-1]
		for _, e := range versions {
			out.Models = append(out.Models, modelInfo(e, def, latest))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) uploadModel(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, apierr.New(apierr.CodeBadInput, "missing ?name= (the model name to version under)"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxUpload))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, apierr.New(apierr.CodePayloadTooLarge,
				"model upload exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, err)
		return
	}
	m, err := core.Decode(data)
	if err != nil {
		writeErr(w, apierr.New(apierr.CodeBadInput, "%v", err))
		return
	}
	man, err := s.eng.Catalog().Put(name, m, nil)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, man)
}

// ModelDetail is the GET /v1/models/{ref} reply: the resolved version's
// info plus its name's full version list.
type ModelDetail struct {
	ModelInfo
	Versions []int `json:"versions"` // every live version of the name, ascending
}

func (s *server) modelDetail(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	e, err := snap.Resolve(r.PathValue("ref"))
	if err != nil {
		writeErr(w, err)
		return
	}
	def, _ := snap.Resolve("")
	versions := snap.Versions(e.Manifest.Name)
	detail := ModelDetail{ModelInfo: modelInfo(e, def, versions[len(versions)-1])}
	for _, v := range versions {
		detail.Versions = append(detail.Versions, v.Manifest.Version)
	}
	writeJSON(w, http.StatusOK, detail)
}

// DeleteResponse is the DELETE /v1/models/{ref} reply.
type DeleteResponse struct {
	Deleted string `json:"deleted"` // the retired name@vN
}

func (s *server) deleteModel(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	name, version, err := catalog.ParseRef(ref)
	if err != nil {
		writeErr(w, err)
		return
	}
	if version == 0 {
		writeErr(w, apierr.New(apierr.CodeBadInput,
			"delete requires an explicit version (%s@vN), not a floating name", name))
		return
	}
	man, err := s.eng.Catalog().Delete(name, version)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: man.Ref()})
}

// DefaultRequest is the PUT /v1/default body.
type DefaultRequest struct {
	Model string `json:"model"` // "name" floats with uploads, "name@vN" pins
}

func (s *server) setDefault(w http.ResponseWriter, r *http.Request) {
	var req DefaultRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		writeErr(w, apierr.New(apierr.CodeBadInput, "bad request body: %v", err))
		return
	}
	if err := s.eng.Catalog().SetDefault(req.Model); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"default": req.Model})
}

// ClassifyRequest is the POST /v1/classify JSON body: one lead of raw ADC
// samples, classified as a whole record against the referenced model (the
// catalog default when Model is empty). With the binary content type the
// body is wire frames instead and the model is referenced with ?model=.
type ClassifyRequest struct {
	Model   string  `json:"model,omitempty"` // catalog reference: name or name@vN
	Samples []int32 `json:"samples"`
}

// Beat is one classified beat of a /v1/classify response: the R-peak sample
// index and the decided class (N, L, V or U).
type Beat struct {
	Sample int    `json:"sample"`
	Class  string `json:"class"`
}

// ClassifyResponse is the POST /v1/classify reply: every detected beat with
// its class, plus per-class counts. Model is the fully resolved version the
// record was classified against.
type ClassifyResponse struct {
	Model  string         `json:"model"` // resolved name@vN
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"`
	Beats  []Beat         `json:"beats"`
}

// readBody reads the whole request body into buf[:0], MaxBytesReader
// violations and all — io.ReadAll without the fresh allocation per request.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeClassifyRequest reads and decodes a /v1/classify body per the
// negotiated content type into the request scratch, returning the model
// reference and the decoded lead (aliasing sc.samples).
func decodeClassifyRequest(sc *classifyScratch, r *http.Request, body io.Reader) (string, []int32, error) {
	var err error
	sc.body, err = readBody(sc.body, body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return "", nil, apierr.New(apierr.CodePayloadTooLarge, "request exceeds %d bytes", tooBig.Limit)
		}
		if ctxErr := r.Context().Err(); ctxErr != nil {
			return "", nil, ctxErr // canceled/timed out, not the client's body
		}
		// Anything else mid-body (malformed chunked encoding, aborted
		// upload) is the client's fault, as the old decoder path reported.
		return "", nil, apierr.New(apierr.CodeBadInput, "reading request body: %v", err)
	}
	model := ""
	switch {
	case wire.IsSampleContentType(r.Header.Get("Content-Type")):
		sc.samples = sc.samples[:0]
		data := sc.body
		for len(data) > 0 {
			sc.samples, data, err = wire.DecodeFrame(sc.samples, data)
			if err != nil {
				return "", nil, wireErr(err)
			}
			if len(sc.samples) > maxClassifySamples {
				return "", nil, apierr.New(apierr.CodePayloadTooLarge,
					"record exceeds %d samples", maxClassifySamples)
			}
		}
	default:
		model, sc.samples, err = wire.ParseClassify(sc.samples, sc.body)
		if err != nil {
			return "", nil, wireErr(err)
		}
	}
	if model == "" {
		// The binary transport has no body field for the model; a ?model=
		// query reference works for every content type.
		model = r.URL.Query().Get("model")
	}
	return model, sc.samples, nil
}

func (s *server) classify(w http.ResponseWriter, r *http.Request) {
	// Admission first, before the body is read: a shed request costs the
	// server nothing but the refusal.
	if err := s.limiter.Allow(tenant(r)); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.gate.AcquireBatch(); err != nil {
		writeErr(w, err)
		return
	}
	defer s.gate.ReleaseBatch()
	sc := s.scratch.Get().(*classifyScratch)
	defer s.scratch.Put(sc)
	model, samples, err := decodeClassifyRequest(sc, r, http.MaxBytesReader(w, r.Body, maxClassifyBytes))
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(samples) == 0 {
		writeErr(w, apierr.New(apierr.CodeBadInput, "no samples"))
		return
	}
	entry, err := s.snapshot().Resolve(model)
	if err != nil {
		writeErr(w, err)
		return
	}
	beats, err := pipeline.BatchClassifyInto(r.Context(), entry.Emb, samples, pipeline.Config{}, &sc.batch)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The response is encoded before the deferred Put, so the pooled
	// buffers are never aliased by a live request.
	sc.resp = wire.AppendClassifyResponse(sc.resp[:0], entry.Manifest.Ref(), beats)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.resp)
}

// StreamChunk is one NDJSON request line of POST /v1/stream: the next batch
// of raw ADC samples of the patient stream. With the binary content type
// each wire frame is one chunk instead.
type StreamChunk struct {
	Samples []int32 `json:"samples"`
}

// StreamBeat is one NDJSON response line of POST /v1/stream: a beat the
// online pipeline finalized, flushed as soon as it is known.
type StreamBeat struct {
	Sample     int    `json:"sample"`
	Class      string `json:"class"`
	DetectedAt int    `json:"detectedAt"`
}

// StreamDone is the final NDJSON response line of POST /v1/stream,
// summarizing the whole stream after the pipeline drained. Model is the
// resolved version the stream was pinned to at open.
type StreamDone struct {
	Done    bool   `json:"done"`
	Model   string `json:"model"`
	Beats   int    `json:"beats"`
	Samples int    `json:"samples"`
}

// decodeChunkLine decodes one NDJSON chunk line into buf[:0], reusing buf's
// backing array across lines, so steady-state chunk decoding never
// reallocates.
func decodeChunkLine(buf []int32, line []byte) ([]int32, error) {
	out, err := wire.ParseChunk(buf, line)
	if err != nil {
		return out, apierr.New(apierr.CodeBadInput, "bad chunk: %v", err)
	}
	return out, nil
}

// stream is the chunked streaming path: each request is one patient stream,
// classified online by the engine's worker pool while the request body is
// still being read. The stream is opened against the catalog snapshot at
// request start and keeps its model version for the whole request, however
// the catalog changes meanwhile.
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	// Admission first: the rate limiter meters stream starts per tenant,
	// then the gate decides whether a stream slot exists at all. At the
	// shed threshold new streams are refused with the typed
	// server_overloaded error (batch /v1/classify stays admitted — the
	// ladder's "degrade to batch-only" rung); the client saw a contract
	// error before a single body byte was read.
	if err := s.limiter.Allow(tenant(r)); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.gate.AcquireStream(); err != nil {
		writeErr(w, err)
		return
	}
	defer s.gate.ReleaseStream()

	// Beat lines go out while the request body is still uploading; without
	// full duplex the HTTP/1 server discards the rest of the body on the
	// first response write.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && r.ProtoMajor == 1 {
		writeErr(w, apierr.New(apierr.CodeInternal, "full-duplex streaming unsupported: %v", err))
		return
	}
	// From here on, every reply that leaves the upload unread (a refused
	// open, a bad frame or chunk, a failed send) closes the connection
	// after it (see internal/httpconn): by a Connection: close header while
	// none is written, mid-stream through httpconn.CloseAfterReply.

	// wmu guards the response writer, the lazily-written header, the shared
	// line buffer and the stopped gate. stopped cuts the sink off once the
	// handler is done with the stream: on a clean Close the engine has
	// already drained every beat, but when Close fails during engine
	// shutdown, queued chunks may still reach the sink after this handler
	// returned — checking the gate under the same lock that covers the
	// writes makes "no sink writes outlive the handler" airtight, not just
	// likely.
	var (
		wmu           sync.Mutex
		headerWritten bool
		stopped       bool
	)
	// The response lines (beat bursts, errors, the final summary) are
	// encoded into one pooled buffer, one Write per burst; all access is
	// under wmu. The buffer returns to the pool only after the stopped gate
	// closes, so a late sink call can never touch a recycled buffer.
	bp := lineBufs.Get().(*[]byte)
	lineBuf := *bp
	defer func() {
		wmu.Lock()
		stopped = true
		*bp = lineBuf[:0]
		wmu.Unlock()
		lineBufs.Put(bp)
	}()

	// ensureHeaderLocked makes the first body write carry the NDJSON
	// content type. Callers hold wmu.
	ensureHeaderLocked := func() {
		if !headerWritten {
			headerWritten = true
			w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		}
	}
	writeDone := func(d StreamDone) {
		wmu.Lock()
		defer wmu.Unlock()
		ensureHeaderLocked()
		lineBuf = wire.AppendStreamDone(lineBuf[:0], d.Model, d.Beats, d.Samples)
		w.Write(lineBuf)
		rc.Flush()
	}
	// streamErr renders a typed error: as a plain status+body when nothing
	// has been streamed yet, as a trailing NDJSON error line otherwise.
	// All under wmu, so it never interleaves with a sink's beat line.
	// unread says the upload was not read to its end.
	streamErr := func(err error, unread bool) {
		ae := apierr.From(err)
		wmu.Lock()
		defer wmu.Unlock()
		if headerWritten && unread {
			httpconn.CloseAfterReply(w)
		}
		if !headerWritten {
			headerWritten = true
			if unread {
				w.Header().Set("Connection", "close")
			}
			if ae.Retryable() {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(ae.HTTPStatus())
		}
		lineBuf = wire.AppendError(lineBuf[:0], string(ae.Code), ae.Message)
		w.Write(lineBuf)
		rc.Flush()
	}
	markStopped := func() {
		wmu.Lock()
		stopped = true
		wmu.Unlock()
	}

	// The resume handshake: a gateway replaying its failover journal opens
	// the successor stream with X-Rpbeat-Resume-From: B, the absolute index
	// of the first replayed sample. The pipeline then phase-aligns its
	// detector with the interrupted run and reports absolute beat indices,
	// so replayed beats are bit-identical to the original's and the gateway
	// can suppress the already-delivered prefix by sample index alone.
	resumeFrom, err := resumeBase(r)
	if err != nil {
		w.Header().Set("Connection", "close")
		writeErr(w, err)
		return
	}

	beats := 0
	st, err := s.eng.Open(r.Context(), r.URL.Query().Get("model"), pipeline.Config{BaseSample: resumeFrom},
		func(res []pipeline.BeatResult) {
			wmu.Lock()
			defer wmu.Unlock()
			if stopped {
				return
			}
			ensureHeaderLocked()
			lineBuf = lineBuf[:0]
			for _, b := range res {
				lineBuf = wire.AppendStreamBeat(lineBuf, b.Peak, b.Decision.String(), b.DetectedAt)
			}
			w.Write(lineBuf)
			rc.Flush()
			beats += len(res) // sink calls are serialized per stream
		})
	if err != nil {
		w.Header().Set("Connection", "close")
		writeErr(w, err)
		return
	}
	model := st.Entry().Manifest.Ref()
	// abort tears the stream down on an error path: no sink writes may
	// outlive this handler.
	abort := func(err error) {
		st.Close()
		markStopped()
		streamErr(err, true)
	}

	// The decoded-chunk slice is pooled across connections and reused
	// across every chunk of this one.
	cp := s.chunks.Get().(*[]int32)
	chunkBuf := *cp
	defer func() {
		*cp = chunkBuf[:0]
		s.chunks.Put(cp)
	}()

	samples := 0
	if wire.IsSampleContentType(r.Header.Get("Content-Type")) {
		// Binary uplink: one wire frame per chunk.
		fr := wire.NewFrameReader(r.Body)
		for {
			var err error
			chunkBuf, err = fr.Next(chunkBuf)
			if err == io.EOF {
				break
			}
			if err != nil {
				// Only typed decode failures are the client's bad_input;
				// transport errors (disconnect, cancellation) keep their
				// own classification, as the NDJSON scanner path does.
				var fe *wire.FrameError
				if errors.As(err, &fe) || errors.Is(err, wire.ErrFrameTooLarge) {
					err = wireErr(err)
				}
				abort(err)
				return
			}
			samples += len(chunkBuf)
			if err := s.sendWithBackpressure(r, st, chunkBuf); err != nil {
				abort(err)
				return
			}
		}
	} else {
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64*1024), maxStreamLineBytes)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var err error
			chunkBuf, err = decodeChunkLine(chunkBuf, line)
			if err != nil {
				abort(err)
				return
			}
			samples += len(chunkBuf)
			if err := s.sendWithBackpressure(r, st, chunkBuf); err != nil {
				abort(err)
				return
			}
		}
		if err := sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				err = apierr.New(apierr.CodePayloadTooLarge,
					"stream line exceeds %d bytes", maxStreamLineBytes)
			}
			abort(err)
			return
		}
	}
	// Close drains the pipeline; every remaining beat hits the sink before
	// it returns, so the summary line is genuinely last.
	if err := st.Close(); err != nil {
		markStopped()
		streamErr(err, false)
		return
	}
	markStopped()
	writeDone(StreamDone{Done: true, Model: model, Beats: beats, Samples: samples})
}

// ResumeFromHeader carries the resume handshake of POST /v1/stream: the
// absolute sample index the request body starts at. Beat and done lines
// report indices in the original stream's space; the beats/samples counts of
// the done line stay per-connection (the resuming tier does its own total
// accounting).
const ResumeFromHeader = wire.ResumeFromHeader

// resumeBase parses the resume handshake header; absent means 0 (a stream
// starting at its true beginning), malformed or negative is the client's
// bad_input.
func resumeBase(r *http.Request) (int, error) {
	h := r.Header.Get(ResumeFromHeader)
	if h == "" {
		return 0, nil
	}
	base, err := strconv.Atoi(h)
	if err != nil || base < 0 {
		return 0, apierr.New(apierr.CodeBadInput,
			"%s: %q is not a non-negative sample index", ResumeFromHeader, h)
	}
	return base, nil
}

// sendWithBackpressure forwards one chunk to the stream, converting the
// engine's typed stream_overloaded into what HTTP already has for this:
// backpressure. While the per-stream queue is full the handler simply stops
// reading the request body (retrying the send), which stalls the client's
// upload through TCP until the worker pool catches up. Only a queue that
// stays full for a whole overloadPatience — a wedged pool, not a burst —
// surfaces the typed error to the client.
func (s *server) sendWithBackpressure(r *http.Request, st *pipeline.Stream, samples []int32) error {
	err := st.Send(r.Context(), samples)
	if !apierr.IsCode(err, apierr.CodeStreamOverloaded) {
		return err
	}
	deadline := time.Now().Add(overloadPatience)
	for {
		select {
		case <-r.Context().Done():
			return r.Context().Err()
		case <-time.After(overloadRetryDelay):
		}
		if err := st.Send(r.Context(), samples); !apierr.IsCode(err, apierr.CodeStreamOverloaded) {
			return err
		}
		if time.Now().After(deadline) {
			return apierr.New(apierr.CodeStreamOverloaded,
				"stream queue stayed full for %v; worker pool cannot keep up", overloadPatience)
		}
	}
}

const (
	// overloadPatience is how long /v1/stream blocks the request body on a
	// full stream queue before giving up with the typed overload error.
	overloadPatience = 30 * time.Second
	// overloadRetryDelay paces the send retries while backpressuring.
	overloadRetryDelay = 10 * time.Millisecond
)

// writeJSON renders an admin-surface success body through encoding/json
// (those endpoints are cold; the data paths use internal/wire instead).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
