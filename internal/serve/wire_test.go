package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/catalog"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/testutil"
	"rpbeat/internal/wire"
)

// testServerWith boots a handler with an explicit HandlerConfig over the
// shared trained model.
func testServerWith(t *testing.T, cfg HandlerConfig) *httptest.Server {
	t.Helper()
	m, _ := testTrainedModel(t)
	cat := catalog.New()
	if _, err := cat.Put("default", m, nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 2})
	ts := httptest.NewServer(NewHandler(eng, cfg))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts
}

func postBody(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestClassifyBinaryMatchesJSON: the same record through the JSON body and
// through binary wire frames must produce byte-identical responses.
func TestClassifyBinaryMatchesJSON(t *testing.T) {
	ts, _, _ := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "wb", Seconds: 30, Seed: 5, PVCRate: 0.1}).Leads[0]

	jsonBody, _ := json.Marshal(ClassifyRequest{Samples: lead})
	st1, resp1 := postBody(t, ts.URL+"/v1/classify", "application/json", jsonBody)
	if st1 != http.StatusOK {
		t.Fatalf("json classify: %d: %s", st1, resp1)
	}

	binBody := wire.AppendFrames(nil, lead, 1024)
	if len(binBody)*3 > len(jsonBody) {
		t.Fatalf("binary body %d bytes vs json %d: expected at least 3x compaction", len(binBody), len(jsonBody))
	}
	st2, resp2 := postBody(t, ts.URL+"/v1/classify", wire.ContentTypeSamples, binBody)
	if st2 != http.StatusOK {
		t.Fatalf("binary classify: %d: %s", st2, resp2)
	}
	if !bytes.Equal(resp1, resp2) {
		t.Fatalf("binary and JSON responses differ:\njson   %s\nbinary %s", resp1, resp2)
	}

	var got ClassifyResponse
	if err := json.Unmarshal(resp2, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total == 0 || got.Model != "default@v1" {
		t.Fatalf("binary classify response: %+v", got)
	}

	// ?model= selects the model for the binary transport (no body field).
	st3, resp3 := postBody(t, ts.URL+"/v1/classify?model=default@v1", wire.ContentTypeSamples, binBody)
	if st3 != http.StatusOK || !bytes.Equal(resp3, resp2) {
		t.Fatalf("?model= binary classify: %d", st3)
	}
	st4, resp4 := postBody(t, ts.URL+"/v1/classify?model=nope", wire.ContentTypeSamples, binBody)
	if st4 != http.StatusNotFound {
		t.Fatalf("unknown model over binary: %d: %s", st4, resp4)
	}
}

// TestStreamBinaryMatchesNDJSON: the same chunk sequence as NDJSON lines
// and as binary frames must produce byte-identical response streams.
func TestStreamBinaryMatchesNDJSON(t *testing.T) {
	ts, _, _ := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ws", Seconds: 30, Seed: 6, PVCRate: 0.1}).Leads[0]

	var ndjson, frames []byte
	for off := 0; off < len(lead); off += 360 {
		end := min(off+360, len(lead))
		line, _ := json.Marshal(StreamChunk{Samples: lead[off:end]})
		ndjson = append(append(ndjson, line...), '\n')
		var err error
		frames, err = wire.AppendFrame(frames, lead[off:end])
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(frames)*3 > len(ndjson) {
		t.Fatalf("binary stream %d bytes vs ndjson %d: expected at least 3x compaction", len(frames), len(ndjson))
	}

	st1, resp1 := postBody(t, ts.URL+"/v1/stream", "application/x-ndjson", ndjson)
	st2, resp2 := postBody(t, ts.URL+"/v1/stream", wire.ContentTypeSamples, frames)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("stream statuses: ndjson %d, binary %d", st1, st2)
	}
	if !bytes.Equal(resp1, resp2) {
		t.Fatalf("stream responses differ:\nndjson %s\nbinary %s", resp1, resp2)
	}
	var done StreamDone
	lines := bytes.Split(bytes.TrimSpace(resp2), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Samples != len(lead) || done.Beats == 0 {
		t.Fatalf("binary stream summary: %+v", done)
	}
}

// TestStreamBinaryBadFrame: malformed and oversized frames surface as the
// typed error contract.
func TestStreamBinaryBadFrame(t *testing.T) {
	ts, _, _ := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, bytes.NewReader([]byte("XXXXjunk.....")))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// A declared count beyond MaxFrameSamples: rejected before allocation.
	huge := []byte{'R', 'P', 'B', 'S', 1, 4, 0xff, 0xff, 0xff, 0xff}
	resp, err = http.Post(ts.URL+"/v1/stream", wire.ContentTypeSamples, bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusRequestEntityTooLarge, apierr.CodePayloadTooLarge)

	// Truncated mid-frame: typed bad_input, not a hang or a panic.
	good, _ := wire.AppendFrame(nil, []int32{1, 2, 3, 4})
	resp, err = http.Post(ts.URL+"/v1/classify", wire.ContentTypeSamples, bytes.NewReader(good[:len(good)-2]))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusBadRequest, apierr.CodeBadInput)

	// A body of individually-legal frames that decodes past the per-request
	// sample bound: width-1 delta frames expand ~4x beyond what the same
	// bytes could carry as JSON, so the sample count is bounded directly —
	// the decode loop stops at the first frame over the limit.
	flat := make([]int32, 1<<20)
	var big []byte
	for i := 0; i < 5; i++ { // 5 Mi samples > maxClassifySamples (4 Mi)
		if big, err = wire.AppendFrame(big, flat); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/classify", wire.ContentTypeSamples, bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	wantAPIError(t, resp, http.StatusRequestEntityTooLarge, apierr.CodePayloadTooLarge)
}

// TestStreamRefusalClosesKeepAlive sends two requests on one keep-alive
// client: first a /v1/stream the handler refuses with its upload still
// unread, then an ordinary classify. net/http drains the unread upload
// after the handler, which races the next request's read on the same
// connection, so the refusal must say Connection: close and the second
// request must arrive on a fresh connection and succeed.
func TestStreamRefusalClosesKeepAlive(t *testing.T) {
	ts, _, _ := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ka", Seconds: 4, Seed: 8, PVCRate: 0.1}).Leads[0]
	frames := wire.AppendFrames(nil, lead, 360)
	classify := wire.AppendFrames(nil, lead, 1024)
	badFrame := append([]byte("XXXXjunk"), frames...)

	cases := []struct {
		name, query string
		resumeFrom  string
		body        []byte
		status      int
		code        apierr.Code
	}{
		{"bad frame", "", "", badFrame, http.StatusBadRequest, apierr.CodeBadInput},
		{"bad resume header", "", "-1", frames, http.StatusBadRequest, apierr.CodeBadInput},
		{"open refused", "?model=nope", "", frames, http.StatusNotFound, apierr.CodeModelNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			var reused []bool
			do := func(path, query, resumeFrom string, body []byte) *http.Response {
				t.Helper()
				req, err := http.NewRequest(http.MethodPost, ts.URL+path+query, bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", wire.ContentTypeSamples)
				if resumeFrom != "" {
					req.Header.Set(ResumeFromHeader, resumeFrom)
				}
				trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
					reused = append(reused, info.Reused)
				}}
				resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				return resp
			}

			resp := do("/v1/stream", c.query, c.resumeFrom, c.body)
			if !resp.Close {
				t.Error("refused stream left its connection open for another request")
			}
			wantAPIError(t, resp, c.status, c.code)

			resp = do("/v1/classify", "", "", classify)
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("classify after the refused stream: status %d, %v: %s", resp.StatusCode, err, raw)
			}
			if len(reused) != 2 || reused[1] {
				t.Fatalf("connection reuse per request = %v, want [false false]", reused)
			}
		})
	}
}

// lockedBuffer is an io.Writer safe for the server's log and the test to
// share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStreamMidStreamAbortClosesConnection: a stream that fails after its
// first beat went out (a bad frame behind good ones) ends with a trailing
// typed error line, and once the client finishes its upload the server
// closes the connection instead of reading another request from it. Had it
// kept the connection, its next read would race net/http's post-handler
// drain, which panics ("invalid concurrent Body.Read call") in the server
// log.
func TestStreamMidStreamAbortClosesConnection(t *testing.T) {
	_, eng, _ := testServer(t)
	var logged lockedBuffer
	ts := httptest.NewUnstartedServer(NewHandler(eng, HandlerConfig{}))
	ts.Config.ErrorLog = log.New(&logged, "", 0)
	ts.Start()
	defer ts.Close()
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	chunk := func(b []byte) { fmt.Fprintf(conn, "%x\r\n%s\r\n", len(b), b) }

	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ma", Seconds: 10, Seed: 8, PVCRate: 0.1}).Leads[0]
	fmt.Fprintf(conn, "POST /v1/stream HTTP/1.1\r\nHost: serve\r\nContent-Type: %s\r\n"+
		"Transfer-Encoding: chunked\r\n\r\n", wire.ContentTypeSamples)
	chunk(wire.AppendFrames(nil, lead, 360))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := bufio.NewReader(resp.Body)
	if line, err := body.ReadBytes('\n'); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("first beat line: status %d, %q, %v", resp.StatusCode, line, err)
	}

	chunk([]byte("XXXXjunk........"))
	rest, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(rest), []byte("\n"))
	var er ErrorResponse
	if err := json.Unmarshal(lines[len(lines)-1], &er); err != nil || er.Error.Code != apierr.CodeBadInput {
		t.Fatalf("last line %q, want a bad_input error line", lines[len(lines)-1])
	}

	fmt.Fprint(conn, "0\r\n\r\n") // the upload ends; the connection must not be reused
	if n, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after the aborted stream: read %v, %v", n, err)
	}
	if strings.Contains(logged.String(), "panic") {
		t.Fatalf("server kept the connection and panicked reading it:\n%s", logged.String())
	}
}

// TestCodecEquivalenceStdlibVsFast holds the handler's hand-rolled codecs
// to encoding/json as the oracle. Every success body — the classify
// response and each stream beat and done line — must be exactly what
// json.Encoder writes for the value it decodes to, and a request is refused
// as bad_input whenever json.Unmarshal rejects its body; a body the stdlib
// accepts gets the outcome its content calls for. Together this keeps the
// fast codec invisible on the wire.
func TestCodecEquivalenceStdlibVsFast(t *testing.T) {
	ts, _, _ := testServer(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "ab", Seconds: 20, Seed: 9, PVCRate: 0.2}).Leads[0]

	classifyBody, _ := json.Marshal(ClassifyRequest{Model: "default", Samples: lead})
	var ndjson []byte
	for off := 0; off < len(lead); off += 512 {
		end := min(off+512, len(lead))
		line, _ := json.Marshal(StreamChunk{Samples: lead[off:end]})
		ndjson = append(append(ndjson, line...), '\n')
	}
	// reencode decodes one fast-codec line into a fresh value of the
	// oracle's type and renders it back through json.Encoder.
	reencode := func(line []byte, v any) []byte {
		t.Helper()
		if err := json.Unmarshal(line, v); err != nil {
			t.Fatalf("fast body %q does not decode: %v", line, err)
		}
		var out bytes.Buffer
		if err := json.NewEncoder(&out).Encode(v); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	// stdlibDecodes reports whether json.Unmarshal accepts the request
	// body: the whole body on /v1/classify, every line on /v1/stream.
	stdlibDecodes := func(path string, body []byte) bool {
		if path == "/v1/classify" {
			return json.Unmarshal(body, new(ClassifyRequest)) == nil
		}
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) > 0 && json.Unmarshal(line, new(StreamChunk)) != nil {
				return false
			}
		}
		return true
	}

	cases := []struct {
		name, path, ct string
		body           []byte
		// want is the outcome of a body the stdlib decodes: "" for
		// success, otherwise the typed refusal its content earns.
		want apierr.Code
	}{
		{"classify", "/v1/classify", "application/json", classifyBody, ""},
		{"classify with whitespace", "/v1/classify", "application/json",
			[]byte(" {\n\t\"samples\" : [ 1017 , 1020, 1013, 998, 1004, 1011, 1002, 997, 1003, 1008," +
				" 1017 , 1020, 1013, 998, 1004, 1011, 1002, 997, 1003, 1008 ] } "), ""},
		{"classify folded keys", "/v1/classify", "application/json",
			[]byte(`{"SAMPLES":[1017,1020,1013,998,1004,1011,1002,997,1003,1008],"MODEL":"default"}`), ""},
		{"classify unknown key", "/v1/classify", "application/json",
			[]byte(`{"extra":{"a":[1,{"b":null}]},"samples":[1017,1020,1013]}`), ""},
		{"classify bad json", "/v1/classify", "application/json", []byte(`{"samples":[1,}`), ""},
		{"classify float sample", "/v1/classify", "application/json", []byte(`{"samples":[1.5]}`), ""},
		{"classify sample out of range", "/v1/classify", "application/json", []byte(`{"samples":[2147483648]}`), ""},
		{"classify model not a string", "/v1/classify", "application/json", []byte(`{"model":7,"samples":[1]}`), ""},
		{"classify trailing garbage", "/v1/classify", "application/json", []byte(`{"samples":[1]} x`), ""},
		{"classify no samples", "/v1/classify", "application/json", []byte(`{"samples":[]}`), apierr.CodeBadInput},
		{"classify unknown model", "/v1/classify", "application/json",
			[]byte(`{"model":"nope","samples":[1,2,3]}`), apierr.CodeModelNotFound},
		{"stream", "/v1/stream", "application/x-ndjson", ndjson, ""},
		{"stream bad chunk", "/v1/stream", "application/x-ndjson", []byte("{\"samples\":[1,2]}\nnot json\n"), ""},
		{"stream float sample", "/v1/stream", "application/x-ndjson", []byte("{\"samples\":[1,2.5]}\n"), ""},
	}
	for _, c := range cases {
		status, resp := postBody(t, ts.URL+c.path, c.ct, c.body)
		lines := bytes.SplitAfter(resp, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		if len(lines) == 0 {
			t.Fatalf("%s: empty response (status %d)", c.name, status)
		}
		var er ErrorResponse
		last := lines[len(lines)-1]
		failed := bytes.HasPrefix(last, []byte(`{"error"`))
		if failed {
			if err := json.Unmarshal(last, &er); err != nil {
				t.Fatalf("%s: error line %q: %v", c.name, last, err)
			}
			lines = lines[:len(lines)-1]
		}

		want := c.want
		if !stdlibDecodes(c.path, c.body) {
			want = apierr.CodeBadInput
		}
		switch {
		case want == "" && (failed || status != http.StatusOK):
			t.Fatalf("%s: status %d, code %q; encoding/json accepts the body", c.name, status, er.Error.Code)
		case want != "" && !failed:
			t.Fatalf("%s: status %d without an error, want %q", c.name, status, want)
		case failed && er.Error.Code != want:
			t.Fatalf("%s: error code %q, want %q", c.name, er.Error.Code, want)
		}

		// Every success line, including those a stream sent before its
		// error line, must be encoding/json's own rendering.
		for i, line := range lines {
			var got []byte
			switch {
			case c.path == "/v1/classify":
				got = reencode(line, new(ClassifyResponse))
			case !failed && i == len(lines)-1:
				got = reencode(line, new(StreamDone))
			default:
				got = reencode(line, new(StreamBeat))
			}
			if !bytes.Equal(line, got) {
				t.Fatalf("%s: fast line differs from encoding/json:\nfast   %s\nstdlib %s", c.name, line, got)
			}
		}
	}
}

// TestDecodeChunkLineReusesBuffer pins the chunk decoder's contract:
// across NDJSON lines the decoded samples reuse one backing array, and a
// warm line decodes with zero allocations.
func TestDecodeChunkLineReusesBuffer(t *testing.T) {
	lines := [][]byte{
		[]byte(`{"samples":[1017,1020,1013,998]}`),
		[]byte(`{"samples":[1,2,3,4,5,6,7,8]}`),
		[]byte(`{"samples":[-5]}`),
	}
	buf := make([]int32, 0, 64)
	base := &buf[:1][0]
	for round := 0; round < 10; round++ {
		for _, line := range lines {
			var err error
			buf, err = decodeChunkLine(buf, line)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if &buf[:1][0] != base {
		t.Fatal("chunk slice was reallocated across lines")
	}

	line := lines[0]
	var decErr error
	testutil.AssertZeroAlloc(t, "decodeChunkLine on a warm buffer", func() {
		buf, decErr = decodeChunkLine(buf, line)
	})
	if decErr != nil {
		t.Fatal(decErr)
	}
}

// TestStreamServeRowZeroAlloc is the stream serve row's invariant end to
// end above HTTP: decoding a chunk line through the handler's codec and
// pushing it through an engine stream — the whole per-chunk serving path
// between the socket and the classifier — allocates nothing at steady
// state (worker-side allocations included; AllocsPerRun counts globally).
func TestStreamServeRowZeroAlloc(t *testing.T) {
	m, _ := testTrainedModel(t)
	cat := catalog.New()
	if _, err := cat.Put("m", m, nil); err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	st, err := eng.Open(ctx, "m", pipeline.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "za", Seconds: 60, Seed: 3, PVCRate: 0.1}).Leads[0]
	var lines [][]byte
	for off := 0; off+360 <= len(lead); off += 360 {
		line, _ := json.Marshal(StreamChunk{Samples: lead[off : off+360]})
		lines = append(lines, line)
	}
	buf := make([]int32, 0, 512)
	drain := func() {
		for st.PendingSamples() > 0 {
			runtime.Gosched()
		}
	}
	// Warm-up: a full pass grows every ring, FIFO and pool to steady state.
	for _, line := range lines {
		if buf, err = decodeChunkLine(buf, line); err != nil {
			t.Fatal(err)
		}
		if err := st.Send(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	drain()

	next := 0
	var loopErr error
	testutil.AssertZeroAllocN(t, "steady-state stream serving (5 chunks per run)", 10, func() {
		for i := 0; i < 5; i++ {
			buf, loopErr = decodeChunkLine(buf, lines[next])
			if loopErr != nil {
				return
			}
			if loopErr = st.Send(ctx, buf); loopErr != nil {
				return
			}
			next = (next + 1) % len(lines)
			drain()
		}
	})
	if loopErr != nil {
		t.Fatal(loopErr)
	}
}
